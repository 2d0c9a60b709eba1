package icp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"icpic3/internal/expr"
	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

// checkWatchInvariant fails unless every watched literal of every clause
// not satisfied at the root has exactly one entry for its clause on its
// (var, dir) list, with a guard that falls no later than the literal.
// That is what lets propagateWatch skip an entry whose guard survives
// an event without loading the clause.  Root-satisfied clauses are
// exempt: their entries may have been detached.  It also checks that
// no guard is stale: each equals the earliest-falling watched literal
// on its list (the always-falling guard for a single-literal clause),
// so no entry is visited for nothing.
func checkWatchInvariant(t *testing.T, s *Solver) {
	t.Helper()
	for ci := range s.clauses {
		c := &s.clauses[ci]
		if rootSatisfied(s, c) {
			continue
		}
		for _, wi := range []int32{c.w0, c.w1} {
			if wi < 0 {
				continue
			}
			l := c.lits[wi]
			var entries []watcher
			for _, w := range *s.watchList(l.Var, l.Dir) {
				if w.ci == int32(ci) {
					entries = append(entries, w)
				}
			}
			switch {
			case len(entries) != 1:
				t.Fatalf("clause %d %v: watched literal %v has %d entries on its list, want 1",
					ci, c.lits, l, len(entries))
			case !entries[0].fallsBy(guardOf(l, int32(ci))):
				t.Fatalf("clause %d %v: guard %+v falls later than watched literal %v",
					ci, c.lits, entries[0], l)
			}
			if want := tightGuard(c, int32(ci), l.Var, l.Dir); entries[0] != want {
				t.Fatalf("clause %d %v: guard %+v is stale, want %+v", ci, c.lits, entries[0], want)
			}
		}
	}
}

// tightGuard is the guard clause c's entry on the (v, dir) list should
// carry, computed from scratch.
func tightGuard(c *clause, ci int32, v tnf.VarID, dir tnf.Dir) watcher {
	if c.w1 < 0 {
		return watcher{ci: ci, strict: true, b: math.Inf(-1)}
	}
	var best watcher
	found := false
	for _, wi := range []int32{c.w0, c.w1} {
		l := c.lits[wi]
		if l.Var != v || l.Dir != dir {
			continue
		}
		b := l.B
		if dir == tnf.DirGe {
			b = -b
		}
		if !found || b < best.b || (b == best.b && l.Strict) {
			best, found = watcher{ci: ci, strict: l.Strict, b: b}, true
		}
	}
	return best
}

// rootSatisfied reports whether some literal of c holds under the
// level-0 domains, which it reconstructs by undoing the above-root
// events of each (var, side) chain (the solver may be parked at a
// retained assumption prefix).
func rootSatisfied(s *Solver, c *clause) bool {
	for _, l := range c.lits {
		if l.Dir == tnf.DirLe {
			hi, open := rootEndpoint(s, s.lastHiEv[l.Var], s.hi[l.Var], s.hiOpen[l.Var])
			if hi < l.B || (hi == l.B && (!l.Strict || open)) {
				return true
			}
		} else {
			lo, open := rootEndpoint(s, s.lastLoEv[l.Var], s.lo[l.Var], s.loOpen[l.Var])
			if lo > l.B || (lo == l.B && (!l.Strict || open)) {
				return true
			}
		}
	}
	return false
}

// rootEndpoint walks an event chain back to its level-0 value.
func rootEndpoint(s *Solver, ev int32, b float64, open bool) (float64, bool) {
	for ev >= 0 && s.trail[ev].level > 0 {
		b, open = s.trail[ev].old, s.trail[ev].oldOpen
		ev = s.trail[ev].prev
	}
	return b, open
}

// TestWatchGuardSharedList pins the guard of a clause whose two watches
// share one (var, dir) list: a single entry guarded by the literal that
// falls first — the smaller bound on watchLe, the larger on watchGe,
// the strict one on a tie — and events below and at that literal
// propagate as the clause demands.
func TestWatchGuardSharedList(t *testing.T) {
	sys := tnf.NewSystem()
	x, err := sys.AddVar("x", false, interval.New(-10, 10))
	if err != nil {
		t.Fatal(err)
	}
	s := New(sys, Options{})
	for _, c := range []tnf.Clause{
		{tnf.MkLe(x, 3), tnf.MkLt(x, 1)},
		{tnf.MkLe(x, 1), tnf.MkLt(x, 1)},
		{tnf.MkGe(x, -3), tnf.MkGe(x, -1)},
	} {
		s.AddClause(c)
	}
	if cf := s.propagate(); cf != nil {
		t.Fatal("seeding conflicted")
	}
	if len(s.watchLe[x]) != 2 || len(s.watchGe[x]) != 1 {
		t.Fatalf("%d watchLe and %d watchGe entries, want 2 and 1", len(s.watchLe[x]), len(s.watchGe[x]))
	}
	for _, tc := range []struct {
		got, want watcher
	}{
		{s.watchLe[x][0], watcher{ci: 0, strict: true, b: 1}},
		{s.watchLe[x][1], watcher{ci: 1, strict: true, b: 1}},
		{s.watchGe[x][0], watcher{ci: 2, b: 1}},
	} {
		if tc.got != tc.want {
			t.Errorf("entry %+v, want %+v", tc.got, tc.want)
		}
	}
	checkWatchInvariant(t, s)

	s.pushLevel()
	for _, step := range []struct{ lo, hi float64 }{
		{0.5, 10}, // below every guard on watchLe[x]: nothing falls
		{1, 1},    // x < 1 falls in both clauses: units x <= 3, then x <= 1
	} {
		if cf, ok := s.setBound(x, sideLo, step.lo, false, 0, reasonDecision, -1, -1, nil); cf != nil || !ok {
			t.Fatalf("setBound(x >= %g): conflict=%v applied=%v", step.lo, cf, ok)
		}
		if cf := s.propagate(); cf != nil {
			t.Fatalf("x >= %g conflicted", step.lo)
		}
		if s.hi[x] != step.hi {
			t.Errorf("x >= %g: hi = %g, want %g", step.lo, s.hi[x], step.hi)
		}
		checkWatchInvariant(t, s)
	}
}

// TestRootSatisfiedWatchDetach pins root detach: clauses whose blocker
// is true at level 0 leave the visited list on their first visit, so a
// second event on the same list inspects nothing.  Detaching changes no
// trail state, and the next reduceDB still deletes the clauses.
func TestRootSatisfiedWatchDetach(t *testing.T) {
	const n = 50
	sys := tnf.NewSystem()
	x0, err := sys.AddVar("x0", false, interval.New(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	// hi = 80 makes every MkLe(xi, 90) true by initial domain: root-true
	var xs [4]tnf.VarID
	for i := range xs {
		if xs[i], err = sys.AddVar(fmt.Sprintf("x%d", i+1), false, interval.New(0, 80)); err != nil {
			t.Fatal(err)
		}
	}
	s := New(sys, Options{ReduceInterval: n})
	for i := 0; i < n; i++ {
		// watched on x0 <= 50 and the first blocker
		s.AddClause(tnf.Clause{tnf.MkLe(x0, 50), tnf.MkLe(xs[i%4], 90), tnf.MkLe(xs[(i+1)%4], 90)})
	}
	if cf := s.propagate(); cf != nil {
		t.Fatal("seeding conflicted")
	}
	checkWatchInvariant(t, s)

	// two level-0 raises of x0, both falsifying x0 <= 50
	var evs [2]int32
	for i, b := range []float64{60, 70} {
		if cf, ok := s.setBound(x0, sideLo, b, false, 0, reasonDecision, -1, -1, nil); cf != nil || !ok {
			t.Fatalf("setBound(x0 >= %g): conflict=%v applied=%v", b, cf, ok)
		}
		evs[i] = int32(len(s.trail) - 1)
	}
	trailLen := len(s.trail)

	before := s.Stats.WatchVisits
	if cf := s.propagateWatch(evs[0]); cf != nil {
		t.Fatal("first pass conflicted")
	}
	if got := s.Stats.WatchVisits - before; got != n {
		t.Errorf("first pass visited %d entries, want %d", got, n)
	}
	if got := len(s.watchLe[x0]); got != 0 {
		t.Errorf("%d entries left on watchLe[x0] after the first pass, want 0 (all root-satisfied)", got)
	}
	before = s.Stats.WatchVisits
	if cf := s.propagateWatch(evs[1]); cf != nil {
		t.Fatal("second pass conflicted")
	}
	if got := s.Stats.WatchVisits - before; got != 0 {
		t.Errorf("second pass visited %d entries, want 0", got)
	}
	if len(s.trail) != trailLen {
		t.Errorf("trail grew from %d to %d events; detaching must not assert anything", trailLen, len(s.trail))
	}
	checkWatchInvariant(t, s)

	if r := s.Solve(nil); r.Status != StatusSat {
		t.Fatalf("Solve = %v, want sat", r.Status)
	}
	if s.Stats.ClausesDeleted != n || len(s.clauses) != 0 {
		t.Errorf("reduceDB deleted %d clauses, %d left; want all %d deleted",
			s.Stats.ClausesDeleted, len(s.clauses), n)
	}
}

// TestWatchInvariantQuerySequence drives an IC3-shaped query stream —
// one-shot activation clauses added while the solver is parked at a
// retained prefix and retired by a unit afterwards, and aggressive
// clause deletion — and checks the watch invariant after every Solve.
func TestWatchInvariantQuerySequence(t *testing.T) {
	sys := tnf.NewSystem()
	var vars []tnf.VarID
	for _, n := range []string{"x", "y", "z"} {
		v, err := sys.AddVar(n, false, interval.New(-4, 4))
		if err != nil {
			t.Fatal(err)
		}
		vars = append(vars, v)
	}
	if err := sys.Assert(expr.MustParse("x*x + y*y <= 4 and x + y >= 1 and z >= x*y - 1")); err != nil {
		t.Fatal(err)
	}
	s := New(sys, Options{Eps: 1e-3, ReduceInterval: 8})

	rng := rand.New(rand.NewSource(1))
	randLit := func() tnf.Lit {
		l := tnf.Lit{Var: vars[rng.Intn(len(vars))], B: float64(rng.Intn(33))/4 - 4, Strict: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			l.Dir = tnf.DirGe
		}
		return l
	}
	// a fixed frame prefix, so consecutive queries share assumption levels
	frame := []tnf.Lit{tnf.MkGe(vars[0], -3), tnf.MkLe(vars[1], 3)}
	const queries = 300
	unsat := 0
	for q := 0; q < queries; q++ {
		// one-shot query clause on a fresh activation variable (s is
		// usually parked at the frame prefix here)
		act := s.AddBoolVar(fmt.Sprintf(".q%d", q))
		s.AddClause(tnf.Clause{tnf.MkLe(act, 0), s.negLit(randLit()), s.negLit(randLit())})
		as := append(append([]tnf.Lit(nil), frame...), tnf.MkGe(act, 1), randLit())
		if r := s.Solve(as); r.Status == StatusUnsat {
			unsat++
			checkCoreSubset(t, "query", r.Core, as)
		}
		checkWatchInvariant(t, s)
		checkAnteArena(t, s)
		// retire the query: its clause becomes root-satisfied
		s.AddClause(tnf.Clause{tnf.MkLe(act, 0)})
	}
	if unsat == 0 || unsat == queries {
		t.Fatalf("%d of %d queries unsat; the sequence exercises only one answer", unsat, queries)
	}
	if st := s.Stats; st.Reductions == 0 || st.PrefixKeptLevels == 0 || st.ClausesDeleted == 0 {
		t.Fatalf("work %+v: reduction or retention never ran", st)
	}
}
