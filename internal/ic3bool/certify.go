package ic3bool

import (
	"fmt"

	"icpic3/internal/aig"
	"icpic3/internal/sat"
)

// VerifyInvariant independently certifies a Safe verdict of the Boolean
// engine: Inv = ¬Bad ∧ ⋀ ¬cube must contain the initial state and be
// closed under the transition relation, and no Inv state may assert the
// bad output.  All checks are discharged with a fresh SAT solver, so a
// nil return is a proof certificate.
func VerifyInvariant(c *aig.Circuit, invariant []Cube) error {
	// obligation 1: init ∈ Inv (direct evaluation)
	init := c.InitState()
	for _, cube := range invariant {
		all := true
		for _, l := range cube {
			if init[l.Idx] != l.Val {
				all = false
				break
			}
		}
		if all {
			return fmt.Errorf("ic3bool: certify: initial state inside blocked cube %s", cube)
		}
	}
	s := sat.New()
	enc := aig.NewEncoder(c)
	nv := enc.Frame(s)
	stateVar := make([]int, len(c.Latches))
	nextLit := make([]sat.Lit, len(c.Latches))
	for i, la := range c.Latches {
		stateVar[i] = nv[la.Lit.Node()]
		nextLit[i] = enc.SatLit(nv, la.Next)
	}
	// assert Inv over the current state: ¬cube clauses
	for _, cube := range invariant {
		lits := make([]sat.Lit, len(cube))
		for i, l := range cube {
			lits[i] = sat.MkLit(stateVar[l.Idx], !l.Val)
		}
		if !s.AddClause(lits...) {
			return fmt.Errorf("ic3bool: certify: invariant clauses contradictory")
		}
	}

	// obligation 3: Inv ∧ Bad must be UNSAT
	if st := s.Solve(enc.SatLit(nv, c.Bad)); st != sat.Unsat {
		return fmt.Errorf("ic3bool: certify: Inv ∧ Bad is %v", st)
	}

	// obligation 2: Inv ∧ T ∧ cube' must be UNSAT for every cube
	for _, cube := range invariant {
		assumps := make([]sat.Lit, len(cube))
		for i, l := range cube {
			n := nextLit[l.Idx]
			if !l.Val {
				n = n.Neg()
			}
			assumps[i] = n
		}
		if st := s.Solve(assumps...); st != sat.Unsat {
			return fmt.Errorf("ic3bool: certify: Inv ∧ T ∧ (%s)' is %v", cube, st)
		}
	}
	return nil
}
