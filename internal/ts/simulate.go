package ts

import (
	"icpic3/internal/icp"
	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

// Simulator steps a transition system concretely by solving point queries
// with the ICP solver: the current state is pinned and a successor is
// extracted from the solution box.  For deterministic systems this is an
// exact replay engine; for relational systems it picks some successor,
// optionally guided toward a target state.
type Simulator struct {
	sys  *System
	opts icp.Options
}

// NewSimulator builds a simulator; eps is the solving precision
// (0 = 1e-9, tight enough for exact replay of well-conditioned systems).
func NewSimulator(sys *System, eps float64) *Simulator {
	if eps <= 0 {
		eps = 1e-9
	}
	return &Simulator{sys: sys, opts: icp.Options{Eps: eps}}
}

// Step computes a successor of cur.  When guide is non-nil the successor
// is constrained to lie within slack of it in every variable.  The second
// result is false when no successor exists (deadlock or unsatisfiable
// guidance).
func (s *Simulator) Step(cur State, guide State, slack float64) (State, bool) {
	sys := s.sys
	t := tnf.NewSystem()
	ids0, err := sys.DeclareStep(t, 0)
	if err != nil {
		return nil, false
	}
	ids1, err := sys.DeclareStep(t, 1)
	if err != nil {
		return nil, false
	}
	if err := t.Assert(AtStep(sys.Trans, 0)); err != nil {
		return nil, false
	}
	for i, v := range sys.Vars {
		val := cur[v.Name]
		t.AssertLit(tnf.MkGe(ids0[i], val))
		t.AssertLit(tnf.MkLe(ids0[i], val))
		if guide != nil {
			g := guide[v.Name]
			t.AssertLit(tnf.MkGe(ids1[i], g-slack))
			t.AssertLit(tnf.MkLe(ids1[i], g+slack))
		}
	}
	solver := icp.New(t, s.opts)
	r := solver.Solve(nil)
	if r.Status != icp.StatusSat {
		return nil, false
	}
	return sys.BoxState(r.Box, ids1, interval.Interval.Mid), true
}

// Run simulates up to steps transitions from start, stopping early on
// deadlock.  The returned trace starts with start.
func (s *Simulator) Run(start State, steps int) []State {
	trace := []State{start}
	cur := start
	for i := 0; i < steps; i++ {
		next, ok := s.Step(cur, nil, 0)
		if !ok {
			break
		}
		trace = append(trace, next)
		cur = next
	}
	return trace
}

// RunUntil simulates until pred returns true or steps transitions elapse;
// it reports whether pred was reached.
func (s *Simulator) RunUntil(start State, steps int, pred func(State) bool) ([]State, bool) {
	trace := []State{start}
	cur := start
	if pred(cur) {
		return trace, true
	}
	for i := 0; i < steps; i++ {
		next, ok := s.Step(cur, nil, 0)
		if !ok {
			return trace, false
		}
		trace = append(trace, next)
		cur = next
		if pred(cur) {
			return trace, true
		}
	}
	return trace, false
}
