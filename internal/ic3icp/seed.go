package ic3icp

import (
	"fmt"

	"icpic3/internal/icp"
	"icpic3/internal/tnf"
	"icpic3/internal/ts"
)

// seedFrames installs the prior-proof clauses of Options.SeedClauses
// into F_1, keeping only the subset that is still mutually inductive
// against the new Init/Trans — the certificate-reuse path of
// incremental re-verification.
//
// Soundness: a clause ¬c may enter F_1 only if F_1 still
// overapproximates the states reachable in at most one step.  The kept
// subset S satisfies, with fresh solvers (certify-style, independent of
// the run's incremental state):
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
// can strand further clauses, so the check loops until stable.  Every
// query ticks Progress and the loop polls the run budget, so a seeded
// run stays supervisable.
func (ch *checker) seedFrames() error {
	seeds := ch.opts.SeedClauses
	if len(seeds) == 0 {
		return nil
	}
	ch.stats["seedCandidates"] = int64(len(seeds))

	// Convert to solver cubes over the current-state ids.  A cube naming
	// an unknown variable, or with no literals, is stale by construction.
	cands := make([]icpCube, 0, len(seeds))
	for _, c := range seeds {
		cube, ok := ch.importCube(c)
		if !ok {
			continue
		}
		cands = append(cands, cube)
	}

	// Obligation 1: Init ∧ c UNSAT (the run's init solver is fresh at
	// this point — it has answered only the 0-step query).
	kept := cands[:0]
	for _, cube := range cands {
		if ch.budget.Expired() {
			return fmt.Errorf("timeout")
		}
		ch.stats["seedQueries"]++
		if intersects, _ := ch.initIntersects(cube); !intersects {
			kept = append(kept, cube)
		}
	}
	cands = kept

	// Obligation 2: relative consecution on a fresh solver.  Each ¬c is
	// guarded by its own activation literal, so dropping a clause is one
	// retired assumption, not a solver rebuild.  The system declares
	// step 0 first, as tnfMain does, so the cubes' literals are its
	// step-0 literals.
	tnfSeed := tnf.NewSystem()
	if _, err := ch.sys.DeclareStep(tnfSeed, 0); err != nil {
		return err
	}
	nextIDs, err := ch.sys.DeclareStep(tnfSeed, 1)
	if err != nil {
		return err
	}
	if err := tnfSeed.Assert(ts.AtStep(ch.sys.Trans, 0)); err != nil {
		return err
	}
	if err := tnfSeed.Assert(ts.AtStep(ch.sys.Prop, 0)); err != nil {
		return err
	}
	solver := icp.New(tnfSeed, ch.opts.Solver)

	acts := make([]tnf.VarID, len(cands))
	for i, cube := range cands {
		acts[i] = solver.AddBoolVar(fmt.Sprintf(".seed%d", i))
		cl := tnf.Clause{tnf.MkLe(acts[i], 0)}
		for _, l := range cube {
			cl = append(cl, tnfSeed.NegLit(l))
		}
		solver.AddClause(cl)
	}

	active := make([]bool, len(cands))
	for i := range active {
		active[i] = true
	}
	for changed := true; changed; {
		changed = false
		for i, cube := range cands {
			if !active[i] {
				continue
			}
			if ch.budget.Expired() {
				return fmt.Errorf("timeout")
			}
			ch.stats["seedQueries"]++
			ch.tick()
			assumps := make([]tnf.Lit, 0, len(cands)+len(cube))
			for j, a := range acts {
				if active[j] {
					assumps = append(assumps, tnf.MkGe(a, 1))
				}
			}
			assumps = onStep(assumps, cube, nextIDs)
			r := solver.Solve(assumps)
			if r.Status != icp.StatusUnsat {
				// SAT or Unknown: not provably inductive any more — drop,
				// which may strand clauses that leaned on this one
				active[i] = false
				changed = true
			}
		}
	}

	installed := int64(0)
	for i, cube := range cands {
		if active[i] {
			ch.addBlockedCube(cube, 1)
			installed++
		}
	}
	ch.stats["seedInstalled"] = installed
	ch.stats["seedDropped"] = int64(len(seeds)) - installed
	return nil
}

// importCube converts a named-bound cube into solver literals over the
// current-state ids; ok is false for cubes referencing unknown
// variables or carrying no literals (stale certificates).
func (ch *checker) importCube(c Cube) (icpCube, bool) {
	if len(c) == 0 {
		return nil, false
	}
	cube := make(icpCube, len(c))
	for i, b := range c {
		idx, ok := ch.sys.VarIndex(b.Var)
		if !ok {
			return nil, false
		}
		dir := tnf.DirGe
		if b.Le {
			dir = tnf.DirLe
		}
		cube[i] = tnf.Lit{Var: ch.curIDs[idx], Dir: dir, B: b.B, Strict: b.Strict}
	}
	return cube, true
}
