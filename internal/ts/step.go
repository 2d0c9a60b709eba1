package ts

import (
	"strings"

	"icpic3/internal/expr"
	"icpic3/internal/interval"
)

// Stepper encloses the successors of a box of states, for systems whose
// transition relation is a function of the current state.  A Stepper
// reuses one evaluation environment and is not safe for concurrent use.
type Stepper struct {
	names  []string     // state variable names, in declaration order
	primed []string     // their primed names
	next   []*expr.Expr // next[i]: the update of variable i, over unprimed variables
	guards []*expr.Expr // the other conjuncts of Trans
	env    expr.IEnv
}

// Stepper returns a successor enclosure for a system whose Trans is a
// conjunction holding, for every state variable, a conjunct x' = f(x)
// (or f(x) = x') whose right-hand side mentions no primed variable.
// Every other conjunct is a guard, which Step requires to be true.  It
// reports false for systems with int or bool variables and for any
// other Trans shape (a relational or guarded update).
//
// The stepper reads Trans after expr.Simplify, the form AtStep hands the
// solvers, so it encloses the successor of the formula they compile
// (constant folding may move a constant by an ulp).
func (s *System) Stepper() (*Stepper, bool) {
	if s.Trans == nil {
		return nil, false
	}
	st := &Stepper{env: expr.IEnv{}, next: make([]*expr.Expr, len(s.Vars))}
	for _, v := range s.Vars {
		if v.Kind != expr.KindReal {
			return nil, false
		}
		st.names = append(st.names, v.Name)
		st.primed = append(st.primed, v.Name+"'")
	}
	for _, c := range conjuncts(expr.Simplify(s.Trans), nil) {
		if i, f, ok := s.update(c); ok && st.next[i] == nil {
			st.next[i] = f
			continue
		}
		st.guards = append(st.guards, c)
	}
	for _, f := range st.next {
		if f == nil {
			return nil, false
		}
	}
	return st, true
}

// conjuncts appends the leaves of e's top-level conjunction tree.
func conjuncts(e *expr.Expr, out []*expr.Expr) []*expr.Expr {
	if e.Op != expr.OpAnd {
		return append(out, e)
	}
	for _, a := range e.Args {
		out = conjuncts(a, out)
	}
	return out
}

// update recognizes c as x' = f or f = x' with f over unprimed variables,
// returning x's index and f.
func (s *System) update(c *expr.Expr) (int, *expr.Expr, bool) {
	if c.Op != expr.OpEq {
		return 0, nil, false
	}
	for k := 0; k < 2; k++ {
		lhs, rhs := c.Args[k], c.Args[1-k]
		if lhs.Op != expr.OpVar || !strings.HasSuffix(lhs.Name, "'") || mentionsPrimed(rhs) {
			continue
		}
		if i, ok := s.byName[strings.TrimSuffix(lhs.Name, "'")]; ok {
			return i, rhs, true
		}
	}
	return 0, nil, false
}

func mentionsPrimed(e *expr.Expr) bool {
	if e.Op == expr.OpVar {
		return strings.HasSuffix(e.Name, "'")
	}
	for _, a := range e.Args {
		if mentionsPrimed(a) {
			return true
		}
	}
	return false
}

// Step encloses the successors of every state in the box cur (values in
// declaration order; a point state is the box of interval.Point values)
// into succ, outward rounded.  It reports true only when the enclosure
// is exact in this sense: every update is defined on all of cur, and
// every guard is defined on (cur, succ) and true on all of it
// (expr.EvalInterval), so each state of cur has exactly one real
// successor, and it lies in succ.  Applied to its own output, Step
// replays a point state over several steps.  succ must not alias cur;
// on false, succ holds no meaning.
func (st *Stepper) Step(cur, succ []interval.Interval) bool {
	for i, n := range st.names {
		st.env[n] = cur[i]
	}
	for i, f := range st.next {
		v, err := f.EvalInterval(st.env)
		if err != nil {
			return false
		}
		succ[i] = v
	}
	for i, n := range st.primed {
		st.env[n] = succ[i]
	}
	for _, g := range st.guards {
		if t, err := g.EvalTruth(st.env); err != nil || t != expr.True {
			return false
		}
	}
	return true
}
