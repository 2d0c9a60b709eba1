package icp

import (
	"slices"
	"testing"

	"icpic3/internal/expr"
	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

// cloneFixture compiles a small nonlinear system and pre-warms the solver
// with a few solves so that learned clauses and level-0 trail events
// exist before the snapshot is taken.
func cloneFixture(t *testing.T) (*Solver, *tnf.System) {
	t.Helper()
	sys := tnf.NewSystem()
	for _, n := range []string{"x", "y"} {
		if _, err := sys.AddVar(n, false, interval.New(-4, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Assert(expr.MustParse("x*x + y*y <= 4 and x + y >= 1")); err != nil {
		t.Fatal(err)
	}
	s := New(sys, Options{Eps: 1e-4})
	x, _ := sys.Lookup("x")
	if r := s.Solve(nil); r.Status != StatusSat {
		t.Fatalf("warmup status = %v", r.Status)
	}
	if r := s.Solve([]tnf.Lit{tnf.MkGe(x, 3)}); r.Status != StatusUnsat {
		t.Fatalf("warmup assumption status = %v", r.Status)
	}
	return s, sys
}

func TestCloneIndependentResults(t *testing.T) {
	s, sys := cloneFixture(t)
	c := s.Clone()

	x, _ := sys.Lookup("x")
	y, _ := sys.Lookup("y")

	// identical queries agree between original and clone
	for _, as := range [][]tnf.Lit{
		nil,
		{tnf.MkGe(x, 1)},
		{tnf.MkGe(x, 3)},
		{tnf.MkLe(y, -2), tnf.MkLe(x, 0)},
	} {
		r1 := s.Solve(as)
		r2 := c.Solve(as)
		if r1.Status != r2.Status {
			t.Fatalf("assumptions %v: original %v, clone %v", as, r1.Status, r2.Status)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	s, sys := cloneFixture(t)
	c := s.Clone()
	x, _ := sys.Lookup("x")

	// growing the clone (extra var + pinning clause) must not leak back
	nv := s.NumVars()
	act := c.AddBoolVar(".act")
	c.AddClause(tnf.Clause{tnf.MkLe(act, 0), tnf.MkGe(x, 100)}) // act -> x >= 100 (impossible)
	if r := c.Solve([]tnf.Lit{tnf.MkGe(act, 1)}); r.Status != StatusUnsat {
		t.Fatalf("clone guarded query = %v", r.Status)
	}
	if s.NumVars() != nv {
		t.Fatalf("original grew from %d to %d vars", nv, s.NumVars())
	}
	if r := s.Solve(nil); r.Status != StatusSat {
		t.Fatalf("original after clone mutation = %v", r.Status)
	}

	// and the original pinning x does not constrain the clone
	s.AddClause(tnf.Clause{tnf.MkGe(x, 100)})
	if r := s.Solve(nil); r.Status != StatusUnsat {
		t.Fatalf("original pinned = %v", r.Status)
	}
	if r := c.Solve(nil); r.Status != StatusSat {
		t.Fatalf("clone after original mutation = %v", r.Status)
	}

	// the antecedent arenas are separate too: park the original of a
	// fresh snapshot above the root, then backtrack and re-propagate on
	// the clone; the original's events must keep the antecedents they
	// had.  The prefix query runs once before the snapshot as well, so
	// the original's arena has room to spare when the clone is taken.
	s, sys = cloneFixture(t)
	x, _ = sys.Lookup("x")
	y, _ := sys.Lookup("y")
	prefix := []tnf.Lit{tnf.MkGe(x, 0.5), tnf.MkLe(y, 1)}
	s.Solve(prefix)
	c = s.Clone()
	if r := s.Solve(prefix); r.Status != StatusSat {
		t.Fatalf("original prefix query = %v", r.Status)
	}
	trail := append([]event(nil), s.trail...)
	antes := make([][]int32, len(s.trail))
	for i := range s.trail {
		antes[i] = append([]int32(nil), s.anteOf(&s.trail[i])...)
	}
	for _, as := range [][]tnf.Lit{
		{tnf.MkGe(x, 1)},
		{tnf.MkLe(y, -1), tnf.MkGe(x, -2)},
		{tnf.MkGe(x, 3)},
		nil,
	} {
		c.Solve(as)
		checkAnteArena(t, c)
	}
	if len(s.trail) != len(trail) {
		t.Fatalf("original trail went from %d to %d events", len(trail), len(s.trail))
	}
	for i := range trail {
		if s.trail[i] != trail[i] || !slices.Equal(s.anteOf(&s.trail[i]), antes[i]) {
			t.Fatalf("original event %d changed by the clone's search: antes %v, was %v",
				i, s.anteOf(&s.trail[i]), antes[i])
		}
	}
	checkAnteArena(t, s)
}

// TestCloneSurvivesReduceDB takes a snapshot, then drives the original
// through a clause-database reduction (aggressive ReduceInterval plus a
// pile of root-satisfied retire-style clauses, the kind IC3 queries
// leave behind).  The clone owns copies of the clause slice and watch
// lists, so deletions and watch rebuilds in the original must not
// change a single answer on the snapshot — this is what lets a clone
// keep serving queries while the solver it was taken from reduces.
func TestCloneSurvivesReduceDB(t *testing.T) {
	sys := tnf.NewSystem()
	for _, n := range []string{"x", "y"} {
		if _, err := sys.AddVar(n, false, interval.New(-4, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Assert(expr.MustParse("x*x + y*y <= 4 and x + y >= 1")); err != nil {
		t.Fatal(err)
	}
	s := New(sys, Options{ReduceInterval: 64})
	x, _ := sys.Lookup("x")
	y, _ := sys.Lookup("y")
	if r := s.Solve(nil); r.Status != StatusSat {
		t.Fatalf("warmup status = %v", r.Status)
	}

	c := s.Clone()

	// Two batches of root-satisfied deletable fodder, each followed by a
	// Solve.  A batch is reduce-exempt while pending at its own Solve's
	// entry (and that reduction resets the growth counter), so the first
	// batch only becomes deletable at the reduction the second batch
	// triggers.
	for batch := 0; batch < 2; batch++ {
		for i := 0; i < 100; i++ {
			s.AddClause(tnf.Clause{tnf.MkGe(x, -100), tnf.MkGe(y, -100), tnf.MkLe(x, 100)})
		}
		if r := s.Solve(nil); r.Status != StatusSat {
			t.Fatalf("original after fodder batch %d = %v", batch, r.Status)
		}
	}
	if s.Stats.ClausesDeleted == 0 {
		t.Fatalf("reduceDB deleted nothing (%d reductions, %d clauses); fixture exercises nothing",
			s.Stats.Reductions, len(s.clauses))
	}
	if c.Stats.ClausesDeleted != 0 {
		t.Fatalf("clone counted %d deletions it never performed", c.Stats.ClausesDeleted)
	}

	// the snapshot answers every query exactly like a fresh solver would
	for _, q := range []struct {
		as   []tnf.Lit
		want Status
	}{
		{nil, StatusSat},
		{[]tnf.Lit{tnf.MkGe(x, 1)}, StatusSat},
		{[]tnf.Lit{tnf.MkGe(x, 3)}, StatusUnsat},
		{[]tnf.Lit{tnf.MkLe(y, -2), tnf.MkLe(x, 0)}, StatusUnsat},
	} {
		if r := c.Solve(q.as); r.Status != q.want {
			t.Errorf("clone assumptions %v: got %v, want %v", q.as, r.Status, q.want)
		}
		if r := s.Solve(q.as); r.Status != q.want {
			t.Errorf("original assumptions %v: got %v, want %v", q.as, r.Status, q.want)
		}
	}
}

func TestCloneSyncLazily(t *testing.T) {
	sys := tnf.NewSystem()
	if _, err := sys.AddVar("x", false, interval.New(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert(expr.MustParse("x >= 2")); err != nil {
		t.Fatal(err)
	}
	s := New(sys, Options{})
	c := s.Clone()

	// grow the shared system after the snapshot; only the re-synced
	// clone sees the new clause
	if err := sys.Assert(expr.MustParse("x <= 1")); err != nil {
		t.Fatal(err)
	}
	c.Sync(sys)
	if r := c.Solve(nil); r.Status != StatusUnsat {
		t.Fatalf("synced clone = %v", r.Status)
	}
	if r := s.Solve(nil); r.Status != StatusSat {
		t.Fatalf("stale original = %v", r.Status)
	}
}

// TestCloneWithRetention snapshots a solver that is parked at a
// retained assumption prefix (level > 0 between Solve calls).  Clone
// must reset the retention on the receiver instead of panicking or
// copying the parked trail, fold any deferred root replays into both
// solvers, and leave original and clone answering every query —
// including prefix-sharing ones — identically.
func TestCloneWithRetention(t *testing.T) {
	s, sys := cloneFixture(t)
	x, _ := sys.Lookup("x")
	y, _ := sys.Lookup("y")

	prefix := []tnf.Lit{tnf.MkGe(x, 0.5), tnf.MkLe(y, 1)}
	if r := s.Solve(prefix); r.Status != StatusSat {
		t.Fatalf("prefix query = %v", r.Status)
	}
	if s.level() == 0 || int(s.level()) != len(s.retained) {
		t.Fatalf("fixture not parked at a retained prefix: level %d, retained %d",
			s.level(), len(s.retained))
	}

	// a clause added while parked takes the deferred-root path; both
	// solvers must still enforce it after the snapshot
	s.AddClause(tnf.Clause{tnf.MkLe(x, 1.5)})

	c := s.Clone()
	if s.level() != 0 {
		t.Fatalf("original still parked at level %d after Clone", s.level())
	}
	if c.level() != 0 || len(c.retained) != 0 {
		t.Fatalf("clone starts at level %d with %d retained levels", c.level(), len(c.retained))
	}

	for _, q := range []struct {
		as   []tnf.Lit
		want Status
	}{
		{prefix, StatusSat},
		{append(append([]tnf.Lit(nil), prefix...), tnf.MkGe(x, 1.2)), StatusSat},
		{[]tnf.Lit{tnf.MkGe(x, 1.8)}, StatusUnsat}, // needs the parked-time clause
		{nil, StatusSat},
	} {
		rs := s.Solve(q.as)
		rc := c.Solve(q.as)
		if rs.Status != q.want || rc.Status != q.want {
			t.Errorf("assumptions %v: original %v, clone %v, want %v",
				q.as, rs.Status, rc.Status, q.want)
		}
	}
}

func TestCloneRequiresLevelZero(t *testing.T) {
	s, _ := cloneFixture(t)
	s.pushLevel()
	defer s.cancelUntil(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Clone mid-search did not panic")
		}
	}()
	s.Clone()
}
