// Package kind implements k-induction over non-linear transition systems
// with the CDCL(ICP) solver: the base case is a bounded model check, the
// step case asks whether k consecutive property-satisfying states force
// the property in the next state.  Variable range invariants strengthen
// the step case (they are part of the state space).  k-induction proves
// safety only when the property is k-inductive for some small k, placing
// it between BMC (never proves) and IC3 (discovers strengthenings).
package kind

import (
	"fmt"
	"math"

	"icpic3/internal/engine"
	"icpic3/internal/expr"
	"icpic3/internal/icp"
	"icpic3/internal/interval"
	"icpic3/internal/tnf"
	"icpic3/internal/ts"
)

// Options configures a k-induction run.
type Options struct {
	// MaxK bounds the induction depth (0 = 16).
	MaxK int
	// Solver configures the ICP solver (Eps defaults to 1e-5).
	Solver icp.Options
	// ValidateTol is the counterexample validation tolerance
	// (0 = 1000 * Eps).
	ValidateTol float64
	// SeedK, when > 0, is a prior proof's induction depth (see
	// internal/reuse): step-case queries below it are skipped, since a
	// near-identical system already failed them.  Base cases still run
	// at every depth, so counterexamples are never missed and a Safe
	// verdict keeps its full base-case coverage — a wrong hint costs
	// only the skipped early-exit chance, never the verdict.
	SeedK int
	// Budget bounds the run.
	Budget engine.Budget
	// Progress, when non-nil, receives a heartbeat tick per base/step
	// solver call (see engine.Progress).
	Progress *engine.Progress
}

func (o Options) withDefaults() Options {
	if o.MaxK <= 0 {
		o.MaxK = 16
	}
	if o.Solver.Eps <= 0 {
		o.Solver.Eps = 1e-5
	}
	if o.ValidateTol <= 0 {
		o.ValidateTol = 1000 * o.Solver.Eps
	}
	return o
}

// side is one incrementally grown unrolling (base or step).
type side struct {
	sys    *ts.System
	tnfSys *tnf.System
	solver *icp.Solver
	steps  [][]tnf.VarID
	badLit []tnf.Lit
	robust []tnf.Lit // base side only
	base   bool
	tol    float64
}

// newSide starts an unrolling at step 0.  The base side asserts Init and
// compiles robust violation literals next to the plain ones; the step
// side asks only plain violations.
func newSide(sys *ts.System, opts icp.Options, base bool, tol float64) (*side, error) {
	u := &side{sys: sys, tnfSys: tnf.NewSystem(), base: base, tol: tol}
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
	u.solver = icp.New(u.tnfSys, opts)
	return u, nil
}

// extend adds one step: Trans@k, and for the step side also Prop@k.
func (u *side) extend(assertProp bool) error {
	k := len(u.steps) - 1
	ids, err := u.sys.DeclareStep(u.tnfSys, k+1)
	if err != nil {
		return err
	}
	u.steps = append(u.steps, ids)
	if err := u.tnfSys.Assert(ts.AtStep(u.sys.Trans, k)); err != nil {
		return err
	}
	if assertProp {
		if err := u.tnfSys.Assert(ts.AtStep(u.sys.Prop, k)); err != nil {
			return err
		}
	}
	u.solver.Sync(u.tnfSys)
	return nil
}

// bad returns the robust-violation and plain-violation literals at step
// k.  The step side has no robust literals and returns a zero one.
func (u *side) bad(k int) (robust, plain tnf.Lit, err error) {
	for len(u.badLit) <= k {
		i := len(u.badLit)
		l, err := u.tnfSys.CompileBool(expr.Not(ts.AtStep(u.sys.Prop, i)))
		if err != nil {
			return tnf.Lit{}, tnf.Lit{}, err
		}
		u.badLit = append(u.badLit, l)
		if u.base {
			r, err := u.tnfSys.CompileBool(expr.Not(expr.Weaken(ts.AtStep(u.sys.Prop, i), 2*u.tol)))
			if err != nil {
				return tnf.Lit{}, tnf.Lit{}, err
			}
			u.robust = append(u.robust, r)
		}
	}
	u.solver.Sync(u.tnfSys)
	if u.base {
		robust = u.robust[k]
	}
	return robust, u.badLit[k], nil
}

func (u *side) traceFromBox(box []interval.Interval, depth int) []ts.State {
	trace := make([]ts.State, depth+1)
	for k := 0; k <= depth; k++ {
		st := ts.State{}
		for i, v := range u.sys.Vars {
			val := box[u.steps[k][i]].Mid()
			if v.Kind != expr.KindReal {
				val = math.Round(val)
			}
			st[v.Name] = val
		}
		trace[k] = st
	}
	return trace
}

// Check runs k-induction up to the configured depth.
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
	stats := map[string]int64{}
	finish := func(r engine.Result) engine.Result {
		r.Runtime = budget.Elapsed()
		if r.Stats == nil {
			r.Stats = stats
		}
		return r
	}

	base, err := newSide(sys, opts.Solver, true, opts.ValidateTol)
	if err != nil {
		return finish(engine.Result{Verdict: engine.Unknown, Note: err.Error()})
	}
	step, err := newSide(sys, opts.Solver, false, opts.ValidateTol)
	if err != nil {
		return finish(engine.Result{Verdict: engine.Unknown, Note: err.Error()})
	}

	for k := 0; k <= opts.MaxK; k++ {
		if budget.Expired() {
			return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: "timeout", Stats: stats})
		}
		// base case: Init ∧ Trans^k ∧ !Prop@k (robust violation first:
		// boundary-hugging candidates cannot validate; plain violations
		// are still checked for discrete properties)
		badRobust, badPlain, err := base.bad(k)
		if err != nil {
			return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: err.Error(), Stats: stats})
		}
		opts.Progress.Tick()
		rb := base.solver.Solve([]tnf.Lit{badRobust})
		stats["baseSolves"]++
		if rb.Status == icp.StatusUnsat {
			opts.Progress.Tick()
			rb = base.solver.Solve([]tnf.Lit{badPlain})
			stats["baseSolves"]++
		}
		switch rb.Status {
		case icp.StatusSat:
			trace := base.traceFromBox(rb.Box, k)
			if verr := sys.ValidateTrace(trace, opts.ValidateTol); verr == nil {
				return finish(engine.Result{Verdict: engine.Unsafe, Trace: trace, Depth: k, Stats: stats})
			}
			// Spurious base-case candidate (boundary artifact): the step
			// case may still prove safety at this k, and deeper base cases
			// may surface a real counterexample — keep going.
			stats["spurious"]++
		case icp.StatusUnknown:
			return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: "solver budget (base)", Stats: stats})
		}

		// step case: (∧_{i<=k-1} Prop@i ∧ Trans@i) ∧ !Prop@k over any start.
		// For k = 0 this asks whether !Prop is satisfiable inside the
		// variable ranges at all - usually SAT, so start stepping at k >= 1.
		// A SeedK hint additionally skips the step queries a prior proof
		// already saw fail (the unrolling is still extended, so the query
		// at SeedK sees the full induction hypothesis).
		if k >= 1 && k >= opts.SeedK {
			_, badS, err := step.bad(k)
			if err != nil {
				return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: err.Error(), Stats: stats})
			}
			opts.Progress.Tick()
			rs := step.solver.Solve([]tnf.Lit{badS})
			stats["stepSolves"]++
			if rs.Status == icp.StatusUnsat {
				return finish(engine.Result{
					Verdict: engine.Safe, Depth: k, Stats: stats,
					Certificate: &engine.Certificate{Kind: engine.CertKInduction, K: k},
				})
			}
		}

		if k < opts.MaxK {
			if err := base.extend(false); err != nil {
				return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: err.Error(), Stats: stats})
			}
			if err := step.extend(true); err != nil {
				return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: err.Error(), Stats: stats})
			}
		}
	}
	return finish(engine.Result{
		Verdict: engine.Unknown, Depth: opts.MaxK,
		Note:  fmt.Sprintf("property not %d-inductive", opts.MaxK),
		Stats: stats,
	})
}
