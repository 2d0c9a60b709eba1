package ic3icp

import (
	"icpic3/internal/expr"
	"icpic3/internal/interval"
)

// The exact-witness exit of the F_∞ probes.
//
// Most probes only ask whether ¬c ∧ T ∧ c' is satisfiable under the F_∞
// clauses; nothing reads the ε-box a satisfiable one ends on.  Such a
// probe passes steppedInto as the accept predicate of
// icp.Solver.SolveAccept: at each propagation fixpoint the predicate
// takes the midpoint s of the step-0 box and checks, in exact and
// outward-rounded arithmetic, that s is a real counter-point — outside
// c, outside every F_∞ cube, in the declared domains, with a successor
// (ts.Stepper) inside c and the domains.  Then the compiled query has a
// real model, the solver could never have answered UNSAT, and the probe
// ends with the answer it would have reached by shrinking a box to ε.
// The IC3 layer sees the same booleans.  The probe solver learns fewer
// clauses, though, which can steer the ε-box of a later probe that
// reads its box (DESIGN.md §10).

// buildWitness prepares the exit: the successor enclosure, when Trans is
// a function of the state, and the step-0 formulas compiled into tnfMain
// that a point must keep defined.  Init and Prop are compiled over step
// 0 with every subterm constrained unconditionally (and Weaken only adds
// total terms to Prop), so a point where one of their partial subterms
// is undefined has no model even when Trans steps it into the cube.
func (ch *checker) buildWitness() {
	st, ok := ch.sys.Stepper()
	if !ok {
		return
	}
	ch.stepper = st
	for _, f := range []*expr.Expr{ch.sys.Init, ch.sys.Prop} {
		if f = expr.Simplify(f); !expr.Total(f) {
			ch.partial = append(ch.partial, f)
		}
	}
	n := len(ch.sys.Vars)
	ch.probePoint = make([]interval.Interval, n)
	ch.probeSucc = make([]interval.Interval, n)
	ch.probeEnv = expr.IEnv{}
}

// steppedInto is the accept predicate of a probe for cube c (see the
// comment above): it reports whether the midpoint of the step-0 box
// (lo, hi indexed by solver variable) is an exact counter-point.
func (ch *checker) steppedInto(c icpCube, lo, hi []float64) bool {
	s := ch.probePoint
	for i, id := range ch.curIDs {
		m := interval.Interval{Lo: lo[id], Hi: hi[id]}.Mid()
		if !ch.sys.Vars[i].Dom.Contains(m) { // also rejects NaN
			return false
		}
		s[i] = interval.Point(m)
	}
	if !ch.outside(c, s) {
		return false
	}
	for _, g := range ch.infCubes {
		if !ch.outside(g, s) {
			return false
		}
	}
	succ := ch.probeSucc
	if !ch.stepper.Step(s, succ) {
		return false
	}
	for i, v := range ch.sys.Vars {
		if !v.Dom.ContainsInterval(succ[i]) {
			return false
		}
	}
	for _, l := range c {
		if !l.HoldsOn(succ[l.Var]) {
			return false
		}
	}
	if len(ch.partial) > 0 {
		for i, v := range ch.sys.Vars {
			ch.probeEnv[v.Name] = s[i]
		}
		for _, f := range ch.partial {
			if _, err := f.EvalInterval(ch.probeEnv); err != nil {
				return false
			}
		}
	}
	return true
}

// outside reports whether the point s (point intervals in declaration
// order) violates some literal of cube c exactly: it satisfies the
// clause ¬c.
func (ch *checker) outside(c icpCube, s []interval.Interval) bool {
	for _, l := range c {
		if !l.HoldsOn(s[l.Var]) {
			return true
		}
	}
	return false
}
