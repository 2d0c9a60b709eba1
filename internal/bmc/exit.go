package bmc

import (
	"icpic3/internal/expr"
	"icpic3/internal/interval"
	"icpic3/internal/ts"
)

// The exact-trace exit of the unrolled queries.
//
// bmc and both sides of k-induction only need to know whether a
// violation query is satisfiable, and the base side then needs one
// trace that passes concrete validation; no caller reads the ε-box
// itself.  So Ask passes replays as the accept predicate of
// icp.Solver.SolveAccept: at each propagation fixpoint it takes the
// midpoint s of the step-0 box and replays it k steps with
// outward-rounded enclosures (ts.Stepper), checking that
//
//   - s and every enclosure lie in the declared domains, and every guard
//     of Trans is true on each (enclosure, successor enclosure) pair;
//   - a base unrolling's Init is true at s, and s lies in its step-0
//     restriction (Restrict);
//   - every formula compiled at a step is defined on its enclosure:
//     Prop, and on a base unrolling Weaken(Prop), at steps 0..k (Init and
//     Trans are covered by the checks above);
//   - the asked literal holds: on a base unrolling Weaken(Prop) (robust)
//     or Prop (plain) is false on the step-k enclosure; on a step
//     unrolling Prop is true on the enclosures of steps 0..k-1 (the
//     induction hypothesis) and false on step k's.
//
// Every check is a definite answer of expr.EvalInterval over a box that
// holds the real trajectory of s, and the TNF encoding constrains every
// subterm unconditionally, so the trajectory with each auxiliary at its
// exact value is a real model of the compiled query (learned clauses are
// implied by it).  No search could then end in StatusUnsat, so the exit
// changes which Sat answer a query gets, never whether it gets one.
//
// A base exit's candidate is the trace of enclosure midpoints, and Ask
// takes the exit only when that trace also passes ts.System.ValidateTrace
// at the unrolling's tolerance, the check BaseCase applies to every
// other candidate (so it does not repeat it on an exit's).  A real
// violation smaller than the tolerance passes the proof, but validation
// only when its midpoint trace is exact (in practice at depth 0, where
// no rounded update is involved); exiting on any other would trade a
// search that may still reach a candidate the engines accept for one
// they discard.  Systems without a Stepper (int or bool variables,
// relational Trans) search in full.

// buildExit prepares the exit when Trans is a function of the state.
func (u *Unrolling) buildExit() {
	st, ok := u.sys.Stepper()
	if !ok {
		return
	}
	u.stepper = st
	u.env = expr.IEnv{}
	u.partial = !expr.Total(u.prop)
	if u.base {
		u.init = expr.Simplify(u.sys.Init)
		u.weak = expr.Weaken(u.prop, 2*u.tol)
	}
}

// replays is the accept predicate of the violation query at the current
// depth k (see the comment above); robust selects the robust literal of a
// base unrolling.  On true, u.encl[0..k] hold the replay's enclosures.
func (u *Unrolling) replays(lo, hi []float64, robust bool) bool {
	k := len(u.steps) - 1
	for len(u.encl) <= k {
		u.encl = append(u.encl, make([]interval.Interval, len(u.sys.Vars)))
	}
	s := u.encl[0]
	for i, id := range u.steps[0] {
		m := interval.Interval{Lo: lo[id], Hi: hi[id]}.Mid()
		if !u.sys.Vars[i].Dom.Contains(m) { // also rejects NaN
			return false
		}
		s[i] = interval.Point(m)
	}
	for _, l := range u.start {
		if !l.HoldsOn(s[l.Var]) {
			return false
		}
	}
	for j := 0; ; j++ {
		for i, v := range u.sys.Vars {
			u.env[v.Name] = u.encl[j][i]
		}
		if j == 0 && u.base && !u.is(u.init, expr.True) {
			return false
		}
		if !u.propHolds(j, k, robust) {
			return false
		}
		if j == k {
			return true
		}
		next := u.encl[j+1]
		if !u.stepper.Step(u.encl[j], next) {
			return false
		}
		for i, v := range u.sys.Vars {
			if next[i].IsEmpty() || !v.Dom.ContainsInterval(next[i]) {
				return false
			}
		}
	}
}

// propHolds checks the formulas compiled over Prop at step j of a depth-k
// query against the enclosure bound in u.env.
func (u *Unrolling) propHolds(j, k int, robust bool) bool {
	switch {
	case !u.base && j < k: // induction hypothesis
		return u.is(u.prop, expr.True)
	case !u.base: // the step case's violation
		return u.is(u.prop, expr.False)
	case j < k: // Prop@j and Weaken(Prop)@j are compiled, not asked
		return !u.partial || u.defined(u.prop) && u.defined(u.weak)
	case robust:
		return u.is(u.weak, expr.False) && (!u.partial || u.defined(u.prop))
	}
	return u.is(u.prop, expr.False) && (!u.partial || u.defined(u.weak))
}

// is reports whether f evaluates to want on all of u.env (which implies
// that every subterm of f is defined there).
func (u *Unrolling) is(f *expr.Expr, want expr.Truth) bool {
	t, err := f.EvalTruth(u.env)
	return err == nil && t == want
}

// defined reports whether every subterm of f is defined on all of u.env.
func (u *Unrolling) defined(f *expr.Expr) bool {
	_, err := f.EvalInterval(u.env)
	return err == nil
}

// replayTrace reads the states of the last accepted replay: the midpoints
// of its enclosures, steps 0..depth.
func (u *Unrolling) replayTrace(depth int) []ts.State {
	trace := make([]ts.State, depth+1)
	for j := range trace {
		st := ts.State{}
		for i, v := range u.sys.Vars {
			st[v.Name] = u.encl[j][i].Mid()
		}
		trace[j] = st
	}
	return trace
}
