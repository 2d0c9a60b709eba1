// Package bmc implements bounded model checking over non-linear transition
// systems using the CDCL(ICP) solver: the transition relation is unrolled
// incrementally and property violations are searched at increasing depths.
// Candidate counterexamples (ε-boxes) are validated by concrete replay; a
// candidate that fails validation triggers a precision refinement before
// the engine concedes Unknown.  BMC is the baseline that finds shallow
// bugs fast but can never prove safety.
package bmc

import (
	"fmt"

	"icpic3/internal/engine"
	"icpic3/internal/expr"
	"icpic3/internal/icp"
	"icpic3/internal/interval"
	"icpic3/internal/tnf"
	"icpic3/internal/ts"
)

// Options configures a BMC run.
type Options struct {
	// MaxDepth bounds the unrolling depth (0 = 64).
	MaxDepth int
	// Solver configures the ICP solver (Eps defaults to 1e-5 here).
	Solver icp.Options
	// ValidateTol is the tolerance for concrete counterexample validation
	// (0 = 1000 * Eps).
	ValidateTol float64
	// Refinements is the number of ε-refinement rounds allowed when a
	// candidate fails validation (0 = 2).
	Refinements int
	// Budget bounds the run.
	Budget engine.Budget
	// Progress, when non-nil, receives a heartbeat tick per solver call
	// and per unrolled depth (see engine.Progress).
	Progress *engine.Progress
}

func (o Options) withDefaults() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 64
	}
	if o.Solver.Eps <= 0 {
		o.Solver.Eps = 1e-5
	}
	if o.ValidateTol <= 0 {
		o.ValidateTol = 1000 * o.Solver.Eps
	}
	if o.Refinements <= 0 {
		o.Refinements = 2
	}
	return o
}

// Unrolling is an incrementally grown step-indexed TNF encoding of a
// transition system, with the solver that asks it: the unrolling of BMC
// and of both sides of k-induction.  A base unrolling asserts Init at
// step 0 and compiles a robust violation literal next to each plain one;
// a step unrolling has no Init and asserts Prop@k on each Extend (the
// induction hypothesis).  Trans and Prop are simplified once, and each
// step only renames them (ts.RenameAt).
type Unrolling struct {
	Solver *icp.Solver

	sys         *ts.System
	tnfSys      *tnf.System
	trans, prop *expr.Expr    // simplified once
	steps       [][]tnf.VarID // step -> var ids (declaration order of sys.Vars)
	plain       []tnf.Lit     // step -> literal of !Prop@step (compiled lazily)
	robust      []tnf.Lit     // step -> literal of !Weaken(Prop)@step (base only)
	base        bool
	tol         float64 // robustness margin
}

// NewUnrolling starts an unrolling at step 0; tol is the robustness
// margin of a base unrolling's robust violation literals.
func NewUnrolling(sys *ts.System, opts icp.Options, base bool, tol float64) (*Unrolling, error) {
	u := &Unrolling{sys: sys, tnfSys: tnf.NewSystem(), trans: expr.Simplify(sys.Trans),
		prop: expr.Simplify(sys.Prop), base: base, tol: tol}
	ids, err := sys.DeclareStep(u.tnfSys, 0)
	if err != nil {
		return nil, err
	}
	u.steps = append(u.steps, ids)
	if base {
		if err := u.tnfSys.Assert(ts.AtStep(sys.Init, 0)); err != nil {
			return nil, err
		}
	}
	u.Solver = icp.New(u.tnfSys, opts)
	return u, nil
}

// Extend declares step k+1 and asserts Trans@k, where k is the current
// depth; a step unrolling also asserts Prop@k.
func (u *Unrolling) Extend() error {
	k := len(u.steps) - 1
	ids, err := u.sys.DeclareStep(u.tnfSys, k+1)
	if err != nil {
		return err
	}
	u.steps = append(u.steps, ids)
	if err := u.tnfSys.Assert(ts.RenameAt(u.trans, k)); err != nil {
		return err
	}
	if !u.base {
		if err := u.tnfSys.Assert(ts.RenameAt(u.prop, k)); err != nil {
			return err
		}
	}
	u.Solver.Sync(u.tnfSys)
	return nil
}

// Bad returns the literals asserting the robust violation and the plain
// violation of Prop at step k, compiling on demand.  The robust literal
// describes states violating Prop by at least the margin 2·tol —
// searching it first keeps the engines away from boundary-hugging
// candidates that can never pass concrete validation.  A step unrolling
// has no robust literals and returns a zero one.
func (u *Unrolling) Bad(k int) (robust, plain tnf.Lit, err error) {
	for len(u.plain) <= k {
		p := ts.RenameAt(u.prop, len(u.plain))
		l, err := u.tnfSys.CompileBool(expr.Not(p))
		if err != nil {
			return tnf.Lit{}, tnf.Lit{}, err
		}
		u.plain = append(u.plain, l)
		if u.base {
			r, err := u.tnfSys.CompileBool(expr.Not(expr.Weaken(p, 2*u.tol)))
			if err != nil {
				return tnf.Lit{}, tnf.Lit{}, err
			}
			u.robust = append(u.robust, r)
		}
	}
	u.Solver.Sync(u.tnfSys)
	if u.base {
		robust = u.robust[k]
	}
	return robust, u.plain[k], nil
}

// Trace reads the states of steps 0..depth out of a solution box, taking
// midpoints (see ts.System.BoxState).
func (u *Unrolling) Trace(box []interval.Interval, depth int) []ts.State {
	trace := make([]ts.State, depth+1)
	for k := range trace {
		trace[k] = u.sys.BoxState(box, u.steps[k], interval.Interval.Mid)
	}
	return trace
}

// Check runs bounded model checking up to the configured depth.
//
// Candidate counterexamples that fail concrete validation (boundary
// artifacts of the relaxed strict-inequality semantics, or ε-spurious
// boxes) are retried at finer precision; if they remain unvalidatable the
// search continues at greater depths rather than giving up, so a real
// deeper counterexample is still found.
func Check(sys *ts.System, opts Options) engine.Result {
	opts = opts.withDefaults()
	budget := opts.Budget.Start()
	if err := sys.Validate(); err != nil {
		return engine.Result{Verdict: engine.Unknown, Note: err.Error()}
	}
	userStop := opts.Solver.Stop
	opts.Solver.Stop = func() bool {
		return budget.Expired() || (userStop != nil && userStop())
	}

	u, err := NewUnrolling(sys, opts.Solver, true, opts.ValidateTol)
	if err != nil {
		return engine.Result{Verdict: engine.Unknown, Note: err.Error()}
	}

	stats := map[string]int64{}
	spurious := int64(0)
	finish := func(r engine.Result) engine.Result {
		stats["decisions"] = u.Solver.Stats.Decisions
		stats["conflicts"] = u.Solver.Stats.Conflicts
		r.Runtime = budget.Elapsed()
		if r.Stats == nil {
			r.Stats = stats
		}
		return r
	}

	for k := 0; k <= opts.MaxDepth; k++ {
		if budget.Expired() {
			return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: "timeout"})
		}
		robustBad, plainBad, err := u.Bad(k)
		if err != nil {
			return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: err.Error()})
		}
		opts.Progress.Tick()
		r := u.Solver.Solve([]tnf.Lit{robustBad})
		stats["solves"]++
		switch r.Status {
		case icp.StatusSat:
			trace := u.Trace(r.Box, k)
			if err := sys.ValidateTrace(trace, opts.ValidateTol); err == nil {
				return finish(engine.Result{Verdict: engine.Unsafe, Trace: trace, Depth: k})
			}
			// Spurious candidate: retry this depth once at finer precision
			// with a fresh solver, then keep searching deeper.
			stats["spurious"]++
			spurious++
			if trace, ok := retryDepth(sys, opts, k, budget); ok {
				stats["refinedHits"]++
				return finish(engine.Result{Verdict: engine.Unsafe, Trace: trace, Depth: k})
			}
		case icp.StatusUnknown:
			return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: "solver budget"})
		case icp.StatusUnsat:
			// No robust violation; plain violations may still be genuine
			// for discrete (integer) properties, so validate them too.
			opts.Progress.Tick()
			r2 := u.Solver.Solve([]tnf.Lit{plainBad})
			stats["solves"]++
			if r2.Status == icp.StatusSat {
				trace := u.Trace(r2.Box, k)
				if err := sys.ValidateTrace(trace, opts.ValidateTol); err == nil {
					return finish(engine.Result{Verdict: engine.Unsafe, Trace: trace, Depth: k})
				}
				stats["boundaryOnly"]++
			}
		}
		if k < opts.MaxDepth {
			if err := u.Extend(); err != nil {
				return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: err.Error()})
			}
		}
	}
	note := fmt.Sprintf("no counterexample up to depth %d", opts.MaxDepth)
	if spurious > 0 {
		note += fmt.Sprintf(" (%d unvalidated candidates)", spurious)
	}
	return finish(engine.Result{Verdict: engine.Unknown, Depth: opts.MaxDepth, Note: note})
}

// retryDepth re-solves the depth-k query with a fresh solver at much finer
// precision; it returns a validated trace on success.
func retryDepth(sys *ts.System, opts Options, k int, budget engine.Budget) ([]ts.State, bool) {
	if budget.Expired() {
		return nil, false
	}
	fine := opts.Solver
	fine.Eps = opts.Solver.Eps / 64
	u, err := NewUnrolling(sys, fine, true, opts.ValidateTol)
	if err != nil {
		return nil, false
	}
	for i := 0; i < k; i++ {
		if err := u.Extend(); err != nil {
			return nil, false
		}
	}
	bad, _, err := u.Bad(k)
	if err != nil {
		return nil, false
	}
	r := u.Solver.Solve([]tnf.Lit{bad})
	if r.Status != icp.StatusSat {
		return nil, false
	}
	trace := u.Trace(r.Box, k)
	if err := sys.ValidateTrace(trace, opts.ValidateTol/16); err != nil {
		return nil, false
	}
	return trace, true
}
