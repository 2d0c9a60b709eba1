package icp

import (
	"fmt"
	"testing"

	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

// buildPropBench returns a solver loaded with a clause soup shaped like
// an IC3 frame after many queries: a small fraction of the clauses
// watch the hot variable x0, while the rest merely mention it in an
// unwatched position.  Each clause's co-watched literal is made true by
// a decision at level 1, and the returned event index is a level-1
// raise of x0's lower bound to raise.  Above 50 the event falsifies
// every watched occurrence of MkLe(x0, 50) but asserts nothing (the
// clauses are satisfied, though not at the root, so their entries stay
// put); below 50 it falls no guard.  Either way repeated propagation
// over the event is state-stable and can be timed.
func buildPropBench(tb testing.TB, watched, mention int, raise float64) (*Solver, int32) {
	tb.Helper()
	sys := tnf.NewSystem()
	x0, err := sys.AddVar("x0", false, interval.New(0, 100))
	if err != nil {
		tb.Fatal(err)
	}
	const others = 19
	var xs [others]tnf.VarID
	for i := range xs {
		v, err := sys.AddVar(fmt.Sprintf("x%d", i+1), false, interval.New(0, 100))
		if err != nil {
			tb.Fatal(err)
		}
		xs[i] = v
	}
	s := New(sys, Options{})
	hot := tnf.MkLe(x0, 50)
	for i := 0; i < watched; i++ {
		a, b := xs[i%others], xs[(i+1)%others]
		// hot is lits[0]: pickWatches takes the first two non-false lits,
		// so these clauses sit on watchLe[x0]
		s.AddClause(tnf.Clause{hot, tnf.MkLe(a, 90), tnf.MkLe(b, 90)})
	}
	for i := 0; i < mention; i++ {
		a, b := xs[i%others], xs[(i+2)%others]
		// hot is lits[2]: watched on a and b only, invisible to the
		// watch lists of x0 but still in any occurrence index over it
		s.AddClause(tnf.Clause{tnf.MkLe(a, 90), tnf.MkLe(b, 90), hot})
	}
	// hi = 80 at level 1 makes every MkLe(xi, 90) true: the watched
	// clauses then take the blocker path and the rescan baseline an early
	// satisfied exit, so neither benchmark loop mutates state
	s.pushLevel()
	for _, v := range xs {
		if cf, ok := s.setBound(v, sideHi, 80, false, 0, reasonDecision, -1, -1, nil); cf != nil || !ok {
			tb.Fatalf("setBound(x%d <= 80): conflict=%v applied=%v", v, cf, ok)
		}
	}
	if cf, ok := s.setBound(x0, sideLo, raise, false, 0, reasonDecision, -1, -1, nil); cf != nil || !ok {
		tb.Fatalf("setBound(x0 >= %g): conflict=%v applied=%v", raise, cf, ok)
	}
	return s, int32(len(s.trail) - 1)
}

const (
	propBenchWatched = 200
	propBenchMention = 1800
)

// BenchmarkPropagateWatched times processing one falsifying bound event
// through the two-watched-literal lists: only the clauses actually
// watching (x0, ≤) are visited, each guard has fallen, and each visit
// is a blocker check on the clause.
func BenchmarkPropagateWatched(b *testing.B) {
	s, ei := buildPropBench(b, propBenchWatched, propBenchMention, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cf := s.propagateWatch(ei); cf != nil {
			b.Fatal("unexpected conflict")
		}
	}
}

// BenchmarkPropagateGuardSkip times an event that raises x0's lower
// bound below every watched bound on its list: each entry costs one
// guard comparison and no clause is loaded.
func BenchmarkPropagateGuardSkip(b *testing.B) {
	s, ei := buildPropBench(b, propBenchWatched, propBenchMention, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cf := s.propagateWatch(ei); cf != nil {
			b.Fatal("unexpected conflict")
		}
	}
}

// BenchmarkPropagateOccRescan is the pre-watch baseline on the same
// instance and event: occurrence-list propagation re-evaluated every
// clause containing the event's (var, dir) literal, watched or not.
func BenchmarkPropagateOccRescan(b *testing.B) {
	s, _ := buildPropBench(b, propBenchWatched, propBenchMention, 60)
	// the occurrence list of (x0, ≤): every clause in this instance
	occ := make([]int32, len(s.clauses))
	for i := range occ {
		occ[i] = int32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ci := range occ {
			if cf := s.checkClause(ci); cf != nil {
				b.Fatal("unexpected conflict")
			}
		}
	}
}

// TestPropagateWatchedMatchesRescan pins the benchmark bodies to the
// same semantics on their shared fixture: nothing asserts, nothing
// conflicts, the watched pass visits only the watching clauses and
// keeps every entry (so the next pass visits them again), and the
// guard-skip pass inspects the same entries without changing them.
func TestPropagateWatchedMatchesRescan(t *testing.T) {
	for _, raise := range []float64{60, 40} {
		s, ei := buildPropBench(t, propBenchWatched, propBenchMention, raise)
		trailLen := len(s.trail)
		entries := append([]watcher(nil), s.watchLe[0]...)
		for pass := 0; pass < 2; pass++ {
			before := s.Stats.WatchVisits
			if cf := s.propagateWatch(ei); cf != nil {
				t.Fatalf("raise %g pass %d: watched pass conflicted", raise, pass)
			}
			if visits := s.Stats.WatchVisits - before; visits != propBenchWatched {
				t.Errorf("raise %g pass %d: visited %d entries, want %d", raise, pass, visits, propBenchWatched)
			}
		}
		if len(s.watchLe[0]) != len(entries) {
			t.Fatalf("raise %g: watchLe[x0] went from %d to %d entries", raise, len(entries), len(s.watchLe[0]))
		}
		for i, w := range s.watchLe[0] {
			if w != entries[i] {
				t.Errorf("raise %g: entry %d changed from %+v to %+v", raise, i, entries[i], w)
			}
		}
		for ci := range s.clauses {
			if cf := s.checkClause(int32(ci)); cf != nil {
				t.Fatalf("raise %g: rescan conflicted on clause %d", raise, ci)
			}
		}
		if len(s.trail) != trailLen {
			t.Errorf("raise %g: trail grew from %d to %d events; fixture is not state-stable",
				raise, trailLen, len(s.trail))
		}
		checkWatchInvariant(t, s)
	}
}

// benchRevise times revise on a single-constraint fixture (reviseFixture)
// in two forms.  idle: the constraint is at its fixpoint, so no bound
// moves — about half of all revise calls in IC3 runs look like this.
// productive: every call records events at a fresh level, and the
// timed loop includes the backtrack that pops them again.
func benchRevise(b *testing.B, c reviseCase) {
	b.Run("idle", func(b *testing.B) {
		s := reviseFixture(b, c.con, c.doms, c.decisions...)
		for i, n := 0, -1; n != len(s.trail); i++ {
			if i == 100 {
				b.Fatal("fixture does not reach a revise fixpoint")
			}
			n = len(s.trail)
			if cf := s.revise(0); cf != nil {
				b.Fatal("unexpected conflict")
			}
		}
		mark := len(s.trail)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cf := s.revise(0); cf != nil {
				b.Fatal("unexpected conflict")
			}
		}
		b.StopTimer()
		if len(s.trail) != mark {
			b.Fatal("idle revise recorded an event")
		}
	})
	b.Run("productive", func(b *testing.B) {
		s := reviseFixture(b, c.con, c.doms, c.decisions...)
		mark := len(s.trail)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.pushLevel()
			if cf := s.revise(0); cf != nil || len(s.trail) == mark {
				b.Fatal("productive revise recorded nothing or conflicted")
			}
			s.cancelUntil(1)
		}
	})
}

// reviseCase is a single-constraint revise fixture (reviseFixture).
type reviseCase struct {
	name      string
	con       tnf.Constraint
	doms      []interval.Interval
	decisions []tnf.Lit
}

// reviseBenchCases are the fixtures of TestReviseAnteIsEntrySnapshot,
// shared by BenchmarkRevise{Add,Mul,Sin} and TestReviseProductiveAllocs.
var reviseBenchCases = []reviseCase{
	{"add", tnf.Constraint{Op: tnf.ConAdd, Z: 0, X: 1, Y: 2},
		[]interval.Interval{interval.New(-10, 10), interval.New(-10, 10), interval.New(-10, 10)},
		[]tnf.Lit{tnf.MkGe(1, 3), tnf.MkGe(2, 4), tnf.MkLe(0, 9)}},
	{"mul", tnf.Constraint{Op: tnf.ConMul, Z: 0, X: 1, Y: 2},
		[]interval.Interval{interval.New(-100, 100), interval.New(-10, 10), interval.New(-10, 10)},
		[]tnf.Lit{tnf.MkGe(1, 1), tnf.MkLe(1, 2), tnf.MkGe(2, 2)}},
	{"sin", tnf.Constraint{Op: tnf.ConSin, Z: 0, X: 1},
		[]interval.Interval{interval.New(-2, 2), interval.New(-10, 10)},
		[]tnf.Lit{tnf.MkGe(1, 0), tnf.MkLe(1, 1)}},
}

func BenchmarkReviseAdd(b *testing.B) { benchRevise(b, reviseBenchCases[0]) }
func BenchmarkReviseMul(b *testing.B) { benchRevise(b, reviseBenchCases[1]) }
func BenchmarkReviseSin(b *testing.B) { benchRevise(b, reviseBenchCases[2]) }
