package icp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

// checkAnteArena asserts the LIFO layout of the antecedent arena: the
// events' [anteLo, anteHi) ranges tile s.antes in trail order, so
// len(s.antes) is the last event's anteHi (0 on an empty trail), and
// every antecedent names an earlier event (or -1, "no event").
func checkAnteArena(t *testing.T, s *Solver) {
	t.Helper()
	end := int32(0)
	for i := range s.trail {
		e := &s.trail[i]
		if e.anteLo != end || e.anteHi < e.anteLo {
			t.Fatalf("event %d: antes [%d, %d), want it to start at %d", i, e.anteLo, e.anteHi, end)
		}
		end = e.anteHi
		for _, a := range s.anteOf(e) {
			if a < -1 || a >= int32(i) {
				t.Fatalf("event %d cites antecedent %d", i, a)
			}
		}
	}
	if int32(len(s.antes)) != end {
		t.Fatalf("len(antes) = %d, last event's anteHi = %d (trail %d events)", len(s.antes), end, len(s.trail))
	}
}

// TestEventSize pins the pointer-free trail layout.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want 48", got)
	}
}

// TestAnteArenaLIFO drives setBound and cancelUntil directly through a
// seeded random sequence of levels, bound events with random antecedent
// lists, and backtracks, checking after every cancelUntil that the
// arena matches its invariant and that each surviving event still reads
// exactly the antecedents it was recorded with.
func TestAnteArenaLIFO(t *testing.T) {
	sys := tnf.NewSystem()
	const nv = 6
	for i := 0; i < nv; i++ {
		if _, err := sys.AddVar(fmt.Sprintf("v%d", i), false, interval.New(0, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	s := New(sys, Options{})
	r := rand.New(rand.NewSource(1))
	var want [][]int32 // antecedents recorded for each trail event
	var ante []int32
	for step := 0; step < 5000; step++ {
		switch op := r.Intn(10); {
		case op < 2 && s.level() < 20:
			s.pushLevel()
		case op < 3 && s.level() > 0:
			s.cancelUntil(int32(r.Intn(int(s.level()))))
			want = want[:len(s.trail)]
			checkAnteArena(t, s)
			for i := range s.trail {
				if got := s.anteOf(&s.trail[i]); !slices.Equal(got, want[i]) {
					t.Fatalf("step %d: event %d antes %v, recorded %v", step, i, got, want[i])
				}
			}
		default:
			// a small tightening of one side of a random variable, with up
			// to six antecedents drawn from the current trail
			v := tnf.VarID(r.Intn(nv))
			ante = ante[:0]
			for k := r.Intn(7); k > 0 && len(s.trail) > 0; k-- {
				ante = append(ante, int32(r.Intn(len(s.trail))))
			}
			side, b := int8(sideLo), s.lo[v]+0.01
			if r.Intn(2) == 0 {
				side, b = sideHi, s.hi[v]-0.01
			}
			if s.hi[v]-s.lo[v] < 0.1 {
				continue
			}
			if cf, ok := s.setBound(v, side, b, false, 0, reasonConstraint, -1, 0, ante); cf != nil || !ok {
				t.Fatalf("step %d: setBound conflict=%v applied=%v", step, cf, ok)
			}
			want = append(want, slices.Clone(ante))
		}
	}
	s.cancelUntil(0)
	checkAnteArena(t, s)
}

// TestReviseProductiveAllocs: once warm, a productive revise — events
// recorded at a fresh level, then popped by the backtrack — allocates
// nothing, for the fixtures of BenchmarkRevise{Add,Mul,Sin}.
func TestReviseProductiveAllocs(t *testing.T) {
	for _, c := range reviseBenchCases {
		t.Run(c.name, func(t *testing.T) {
			s := reviseFixture(t, c.con, c.doms, c.decisions...)
			mark := len(s.trail)
			run := func() {
				s.pushLevel()
				if cf := s.revise(0); cf != nil || len(s.trail) == mark {
					t.Fatal("productive revise recorded nothing or conflicted")
				}
				s.cancelUntil(1)
			}
			run() // warm: the trail and the arena reach their working size
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Errorf("productive revise: %v allocs/op, want 0", allocs)
			}
			checkAnteArena(t, s)
		})
	}
}
