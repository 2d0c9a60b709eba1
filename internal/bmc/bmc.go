// Package bmc implements bounded model checking over non-linear transition
// systems using the CDCL(ICP) solver: the transition relation is unrolled
// incrementally and property violations are searched at increasing depths.
// Candidate counterexamples (ε-boxes) are validated by concrete replay
// (Unrolling.BaseCase, shared with k-induction and IC3); a candidate that
// fails validation sends the search one depth deeper.  BMC is the
// baseline that finds shallow bugs fast but can never prove safety.
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
	// Solver configures the ICP solver (Eps defaults to
	// engine.DefaultEps here).
	Solver icp.Options
	// Budget bounds the run.
	Budget engine.Budget
}

func (o Options) withDefaults() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 64
	}
	if o.Solver.Eps <= 0 {
		o.Solver.Eps = engine.DefaultEps
	}
	return o
}

// Unrolling is an incrementally grown step-indexed TNF encoding of a
// transition system, with the solver that asks it: the unrolling of BMC
// and of both sides of k-induction.  A base unrolling asserts Init at
// step 0 and compiles a robust violation literal next to each plain one;
// a step unrolling has no Init and asserts Prop@k on each Extend (the
// induction hypothesis).  Trans and Prop are simplified once, and each
// step only renames them (ts.RenameAt), Prop once per step for both
// Extend and bad.  Ask asks the violation query of the current depth,
// ending it early at a proven replay when Trans is a function of the
// state (exit.go).
type Unrolling struct {
	Solver *icp.Solver

	sys         *ts.System
	tnfSys      *tnf.System
	trans, prop *expr.Expr    // simplified once
	props       []*expr.Expr  // step -> Prop@step (renamed on first use)
	steps       [][]tnf.VarID // step -> var ids (declaration order of sys.Vars)
	plain       []tnf.Lit     // step -> literal of !Prop@step (compiled lazily)
	robust      []tnf.Lit     // step -> literal of !Weaken(Prop)@step (base only)
	start       []tnf.Lit     // step-0 restriction (Restrict)
	base        bool
	tol         float64 // robustness margin

	// exact-trace exit (exit.go): the successor enclosure (nil: no
	// exit), whether Prop has partial subterms, Init and Weaken(Prop)
	// over unrenamed variables (base only), and scratch for the replay
	stepper    *ts.Stepper
	partial    bool
	init, weak *expr.Expr
	env        expr.IEnv
	encl       [][]interval.Interval // step -> enclosure of the replayed state
}

// Test hooks (export_test.go): onExit, when set, observes every
// exact-trace exit with its unrolling and the literal it asked; noExit
// turns the exit off in unrollings made from then on.
var (
	onExit func(u *Unrolling, robust bool)
	noExit bool
)

// NewUnrolling starts an unrolling at step 0; tol is the robustness
// margin of a base unrolling's robust violation literals.
func NewUnrolling(sys *ts.System, opts icp.Options, base bool, tol float64) (*Unrolling, error) {
	u := &Unrolling{sys: sys, tnfSys: tnf.NewSystem(), trans: expr.Simplify(sys.Trans),
		prop: expr.Simplify(sys.Prop), base: base, tol: tol}
	if !noExit {
		u.buildExit()
	}
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

// Restrict confines step 0 to the cube c, whose literals are over the
// variables of step 0 (a literal's Var is the position of its variable
// in sys.Vars, ts.DeclareStep's layout).  It asserts c and keeps it for
// the exit's replay, which must start inside it.  IC3 restricts a base
// unrolling to the first cube of an obligation chain.
func (u *Unrolling) Restrict(c []tnf.Lit) {
	for _, l := range c {
		u.tnfSys.AssertLit(l)
	}
	u.Solver.Sync(u.tnfSys)
	u.start = append(u.start, c...)
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
		if err := u.tnfSys.Assert(u.propAt(k)); err != nil {
			return err
		}
	}
	u.Solver.Sync(u.tnfSys)
	return nil
}

// bad returns the literals asserting the robust violation and the plain
// violation of Prop at step k, compiling on demand.  The robust literal
// describes states violating Prop by at least the margin 2·tol —
// searching it first keeps the engines away from boundary-hugging
// candidates that can never pass concrete validation.  A step unrolling
// has no robust literals and returns a zero one.
func (u *Unrolling) bad(k int) (robust, plain tnf.Lit, err error) {
	for len(u.plain) <= k {
		p := u.propAt(len(u.plain))
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

// propAt returns Prop@k.  Extend and bad share one instance per step,
// whichever of them asks first renames it (with kind's SeedK, Extend
// can run ahead of bad).
func (u *Unrolling) propAt(k int) *expr.Expr {
	for len(u.props) <= k {
		u.props = append(u.props, ts.RenameAt(u.prop, len(u.props)))
	}
	return u.props[k]
}

// Answer is the outcome of one violation query (Ask).
type Answer struct {
	icp.Result
	// Exit says the query ended at an exact-trace exit (exit.go): its
	// Status is StatusSat and its Box is not a solution box.
	Exit bool
	// Trace is, for a Sat answer of a base unrolling, the candidate
	// counterexample over steps 0..k: the replayed trace after an exit
	// (which passed validation at the unrolling's tolerance), else the
	// midpoints of the solution box (ts.System.BoxState).
	Trace []ts.State
}

// Ask asks the violation query at the current depth k: the robust
// violation literal of step k when robust (base unrolling only), else
// the plain one.  On a base unrolling that is Init ∧ Trans^k ∧ ¬Prop@k
// (robustly); on a step unrolling it is the induction step (Prop ∧
// Trans)^k ∧ ¬Prop@k.
func (u *Unrolling) Ask(robust bool) (Answer, error) {
	k := len(u.steps) - 1
	r, p, err := u.bad(k)
	if err != nil {
		return Answer{}, err
	}
	lit := p
	if robust {
		lit = r
	}
	var accept func(lo, hi []float64) bool
	var trace []ts.State // a base exit's replayed trace
	exited := false
	if u.stepper != nil {
		accept = func(lo, hi []float64) bool {
			if !u.replays(lo, hi, robust) {
				return false
			}
			if u.base {
				if trace = u.replayTrace(k); u.sys.ValidateTrace(trace, u.tol) != nil {
					return false
				}
			}
			exited = true
			return true
		}
	}
	a := Answer{Result: u.Solver.SolveAccept([]tnf.Lit{lit}, accept), Exit: exited}
	if exited && onExit != nil {
		onExit(u, robust)
	}
	if a.Status == icp.StatusSat && u.base {
		if exited {
			a.Trace = trace
		} else {
			a.Trace = u.boxTrace(a.Box, k)
		}
	}
	return a, nil
}

// boxTrace reads the states of steps 0..depth out of a solution box,
// taking midpoints (see ts.System.BoxState).
func (u *Unrolling) boxTrace(box []interval.Interval, depth int) []ts.State {
	trace := make([]ts.State, depth+1)
	for k := range trace {
		trace[k] = u.sys.BoxState(box, u.steps[k], interval.Interval.Mid)
	}
	return trace
}

// BaseResult is the outcome of one base case (Unrolling.BaseCase).
type BaseResult struct {
	// Status is StatusSat when the answering query has a candidate,
	// StatusUnsat when neither query has one, StatusUnknown when a query
	// stopped undecided.
	Status icp.Status
	// Trace is the validated counterexample over steps 0..k, or nil (no
	// candidate, or one that failed validation).
	Trace []ts.State
	// Robust says the robust violation query answered, else the plain one.
	Robust bool
	// Solves counts the queries asked; Exits those that ended at an
	// exact-trace exit.
	Solves, Exits int64
}

// BaseCase asks for a counterexample of the current depth k of a base
// unrolling: the robust violation first (boundary-hugging candidates
// cannot validate), and the plain one only when the robust one is UNSAT
// (plain violations may still be genuine for discrete properties).  A
// Sat answer's candidate is validated once at the unrolling's
// tolerance; an exit's trace was validated inside Ask.  BaseCase ticks
// budget before each query.
func (u *Unrolling) BaseCase(budget engine.Budget) (BaseResult, error) {
	var b BaseResult
	for _, robust := range [...]bool{true, false} {
		budget.Tick()
		a, err := u.Ask(robust)
		if err != nil {
			return b, err
		}
		b.Solves++
		if a.Exit {
			b.Exits++
		}
		b.Status, b.Robust = a.Status, robust
		if a.Status != icp.StatusUnsat {
			if a.Status == icp.StatusSat && (a.Exit || u.sys.ValidateTrace(a.Trace, u.tol) == nil) {
				b.Trace = a.Trace
			}
			break
		}
	}
	return b, nil
}

// Check runs bounded model checking up to the configured depth.
//
// A depth whose candidate fails concrete validation (a boundary artifact
// of the relaxed strict-inequality semantics, or an ε-spurious box)
// proves nothing, so the search goes on to greater depths rather than
// giving up: a real deeper counterexample is still found.
func Check(sys *ts.System, opts Options) engine.Result {
	opts = opts.withDefaults()
	budget := opts.Budget.Start()
	if err := sys.Validate(); err != nil {
		return engine.Result{Verdict: engine.Unknown, Note: err.Error()}
	}
	opts.Solver.Stop = budget.Expired

	u, err := NewUnrolling(sys, opts.Solver, true, ts.ValidateTol(opts.Solver.Eps))
	if err != nil {
		return engine.Result{Verdict: engine.Unknown, Note: err.Error()}
	}

	stats := map[string]int64{}
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
		b, err := u.BaseCase(budget)
		stats["solves"] += b.Solves
		if b.Exits > 0 {
			stats["traceExits"] += b.Exits
		}
		if err != nil {
			return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: err.Error()})
		}
		switch {
		case b.Trace != nil:
			return finish(engine.Result{Verdict: engine.Unsafe, Trace: b.Trace, Depth: k})
		case b.Status == icp.StatusUnknown:
			return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: budget.StopNote("bad query")})
		case b.Status == icp.StatusSat && b.Robust:
			stats["spurious"]++
		case b.Status == icp.StatusSat:
			stats["boundaryOnly"]++
		}
		if k < opts.MaxDepth {
			if err := u.Extend(); err != nil {
				return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: err.Error()})
			}
		}
	}
	note := fmt.Sprintf("no counterexample up to depth %d", opts.MaxDepth)
	if n := stats["spurious"]; n > 0 {
		note += fmt.Sprintf(" (%d unvalidated candidates)", n)
	}
	return finish(engine.Result{Verdict: engine.Unknown, Depth: opts.MaxDepth, Note: note})
}
