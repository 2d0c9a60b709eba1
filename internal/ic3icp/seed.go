package ic3icp

import (
	"fmt"

	"icpic3/internal/certify"
	"icpic3/internal/engine"
	"icpic3/internal/icp"
)

// seedFrames installs the prior-proof clauses of Options.SeedClauses
// into F_1, keeping only the subset that is still mutually inductive
// against the new Init/Trans — the certificate-reuse path of
// incremental re-verification.
//
// Soundness: a clause ¬c may enter F_1 only if F_1 still
// overapproximates the states reachable in at most one step.  The kept
// subset S passes the cube obligations of certify.Box, the check that
// certifies a box invariant, on fresh solvers independent of the run's
// incremental state:
//
//  1. Init ∧ c is UNSAT for every c ∈ S              (Init ⊆ ¬c)
//  2. Prop ∧ ⋀_{d∈S} ¬d ∧ T ∧ c' is UNSAT for every c ∈ S
//
// Together with the 0-step check Init ⊆ Prop (already discharged by
// run before seeding), (2) gives post(Init) ⊆ post(Prop ∧ ⋀¬S) ⊆ ¬c, so
// both reachability obligations of F_1 hold.  Clauses failing either
// check — because the certificate is stale for the edited system, or
// corrupted — are dropped; dropping is always sound, seeding never
// introduces one.  The kept set is computed as a greatest fixpoint:
// removing a clause weakens the relative induction hypothesis, which
// can strand further clauses, so each round re-checks the survivors on
// a Box built over them alone, until a round drops nothing.  Every
// query ticks the run budget and the loop polls it, so a seeded
// run stays supervisable.
func (ch *checker) seedFrames() error {
	seeds := ch.opts.SeedClauses
	if len(seeds) == 0 {
		return nil
	}
	ch.stats["seedCandidates"] = int64(len(seeds))

	// A cube naming an unknown variable, or with no literals, is stale
	// by construction.
	kept := make([]engine.Cube, 0, len(seeds))
	for _, c := range seeds {
		if _, err := certify.CubeLits(ch.sys, c); err == nil && len(c) > 0 {
			kept = append(kept, c)
		}
	}

	// keep asks one obligation for every cube in kept and returns the
	// cubes it answers UNSAT for.
	keep := func(ask func(int) icp.Status) ([]engine.Cube, error) {
		var out []engine.Cube
		for i, c := range kept {
			if ch.budget.Expired() {
				return nil, fmt.Errorf("timeout")
			}
			ch.stats["seedQueries"]++
			ch.budget.Tick()
			if ask(i) == icp.StatusUnsat {
				out = append(out, c)
			}
		}
		return out, nil
	}
	// Obligation 1 on one Box, then obligation 2 in rounds, each on a
	// Box over the survivors of the round before.
	box, err := certify.NewBox(ch.sys, kept, ch.opts.Solver)
	if err != nil {
		return err
	}
	if kept, err = keep(box.InitMeets); err != nil {
		return err
	}
	for len(kept) > 0 {
		if box, err = certify.NewBox(ch.sys, kept, ch.opts.Solver); err != nil {
			return err
		}
		next, err := keep(box.StepMeets)
		if err != nil {
			return err
		}
		if len(next) == len(kept) {
			break
		}
		kept = next
	}

	for _, c := range kept {
		lits, _ := certify.CubeLits(ch.sys, c)
		ch.addBlockedCube(lits, 1)
	}
	ch.stats["seedInstalled"] = int64(len(kept))
	ch.stats["seedDropped"] = int64(len(seeds) - len(kept))
	return nil
}
