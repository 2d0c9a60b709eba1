// Package kind implements k-induction over non-linear transition systems
// with the CDCL(ICP) solver: the base case is a bounded model check, the
// step case asks whether k consecutive property-satisfying states force
// the property in the next state.  Both run on bmc's Unrolling.  Variable range invariants strengthen
// the step case (they are part of the state space).  k-induction proves
// safety only when the property is k-inductive for some small k, placing
// it between BMC (never proves) and IC3 (discovers strengthenings).
package kind

import (
	"fmt"

	"icpic3/internal/bmc"
	"icpic3/internal/engine"
	"icpic3/internal/icp"
	"icpic3/internal/ts"
)

// Options configures a k-induction run.
type Options struct {
	// MaxK bounds the induction depth (0 = 16).
	MaxK int
	// Solver configures the ICP solver (Eps defaults to
	// engine.DefaultEps).
	Solver icp.Options
	// SeedK, when > 0, is a prior proof's induction depth (see
	// internal/reuse): step-case queries below it are skipped, since a
	// near-identical system already failed them.  Base cases still run
	// at every depth, so counterexamples are never missed and a Safe
	// verdict keeps its full base-case coverage — a wrong hint costs
	// only the skipped early-exit chance, never the verdict.
	SeedK int
	// Budget bounds the run.
	Budget engine.Budget
}

func (o Options) withDefaults() Options {
	if o.MaxK <= 0 {
		o.MaxK = 16
	}
	if o.Solver.Eps <= 0 {
		o.Solver.Eps = engine.DefaultEps
	}
	return o
}

// Check runs k-induction up to the configured depth.  Safe at k rests
// on the step case at k and on the base cases 0..k-1: a base case that
// ends on a candidate failing validation proves nothing about its depth,
// so after one at depth j no step case beyond j concludes Safe (the run
// ends Unknown, naming j), while deeper base cases may still find a
// counterexample.
func Check(sys *ts.System, opts Options) engine.Result {
	opts = opts.withDefaults()
	budget := opts.Budget.Start()
	if err := sys.Validate(); err != nil {
		return engine.Result{Verdict: engine.Unknown, Note: err.Error()}
	}
	opts.Solver.Stop = budget.Expired
	stats := map[string]int64{}
	var base, step *bmc.Unrolling
	finish := func(r engine.Result) engine.Result {
		for _, u := range [...]*bmc.Unrolling{base, step} {
			if u != nil {
				stats["decisions"] += u.Solver.Stats.Decisions
				stats["conflicts"] += u.Solver.Stats.Conflicts
			}
		}
		r.Runtime = budget.Elapsed()
		if r.Stats == nil {
			r.Stats = stats
		}
		return r
	}

	tol := ts.ValidateTol(opts.Solver.Eps)
	var err error
	base, err = bmc.NewUnrolling(sys, opts.Solver, true, tol)
	if err != nil {
		return finish(engine.Result{Verdict: engine.Unknown, Note: err.Error()})
	}
	step, err = bmc.NewUnrolling(sys, opts.Solver, false, tol)
	if err != nil {
		return finish(engine.Result{Verdict: engine.Unknown, Note: err.Error()})
	}

	// spuriousAt is the first depth whose base case ended on a candidate
	// that failed validation: that depth was never shown free of
	// counterexamples, so no deeper step case may conclude Safe.
	spuriousAt := -1
	for k := 0; k <= opts.MaxK; k++ {
		if budget.Expired() {
			return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: "timeout", Stats: stats})
		}
		// base case: Init ∧ Trans^k ∧ !Prop@k (bmc.Unrolling.BaseCase)
		rb, err := base.BaseCase(budget)
		stats["baseSolves"] += rb.Solves
		if rb.Exits > 0 { // a proven counterexample trace
			stats["traceExits"] += rb.Exits
		}
		if err != nil {
			return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: err.Error(), Stats: stats})
		}
		switch {
		case rb.Trace != nil:
			return finish(engine.Result{Verdict: engine.Unsafe, Trace: rb.Trace, Depth: k, Stats: stats})
		case rb.Status == icp.StatusSat:
			// Spurious base-case candidate (boundary artifact): deeper
			// base cases may surface a real counterexample, so keep going,
			// but depth k is unproven from here on.
			stats["spurious"]++
			if spuriousAt < 0 {
				spuriousAt = k
			}
		case rb.Status == icp.StatusUnknown:
			return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: budget.StopNote("base"), Stats: stats})
		}

		// step case: (∧_{i<=k-1} Prop@i ∧ Trans@i) ∧ !Prop@k over any start.
		// For k = 0 this asks whether !Prop is satisfiable inside the
		// variable ranges at all - usually SAT, so start stepping at k >= 1.
		// A SeedK hint additionally skips the step queries a prior proof
		// already saw fail (the unrolling is still extended, so the query
		// at SeedK sees the full induction hypothesis).
		if k >= 1 && k >= opts.SeedK {
			budget.Tick()
			rs, err := step.Ask(false)
			if err != nil {
				return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: err.Error(), Stats: stats})
			}
			stats["stepSolves"]++
			if rs.Exit { // a proven counterexample to induction
				stats["ctiExits"]++
			}
			if rs.Status == icp.StatusUnsat {
				// Safe at k rests on the base cases 0..k-1
				if spuriousAt >= 0 && spuriousAt < k {
					return finish(engine.Result{
						Verdict: engine.Unknown, Depth: k, Stats: stats,
						Note: fmt.Sprintf("%d-inductive, but the base case at depth %d has only an unvalidated candidate", k, spuriousAt),
					})
				}
				return finish(engine.Result{
					Verdict: engine.Safe, Depth: k, Stats: stats,
					Certificate: &engine.Certificate{Kind: engine.CertKInduction, K: k},
				})
			}
		}

		if k < opts.MaxK {
			if err := base.Extend(); err != nil {
				return finish(engine.Result{Verdict: engine.Unknown, Depth: k, Note: err.Error(), Stats: stats})
			}
			if err := step.Extend(); err != nil {
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
