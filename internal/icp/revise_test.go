package icp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

// reviseFixture returns a solver over real variables v0, v1, … with the
// given domains and the single constraint c (index 0), at level 1 with
// the given decisions applied in order.
func reviseFixture(tb testing.TB, c tnf.Constraint, doms []interval.Interval, decisions ...tnf.Lit) *Solver {
	tb.Helper()
	sys := tnf.NewSystem()
	for i, d := range doms {
		if _, err := sys.AddVar(fmt.Sprintf("v%d", i), false, d); err != nil {
			tb.Fatal(err)
		}
	}
	sys.Cons = append(sys.Cons, c)
	s := New(sys, Options{})
	s.pushLevel()
	for _, l := range decisions {
		if cf, ok := s.assertLit(l, reasonDecision, -1, -1, nil); cf != nil || !ok {
			tb.Fatalf("decision %v: conflict=%v applied=%v", l, cf, ok)
		}
	}
	return s
}

// entrySnapshot is the antecedent set every event and conflict of a
// revise call on c must cite: the latest lo then hi event of Z, X and
// (for binary operators) Y, read before the call.
func entrySnapshot(s *Solver, c tnf.Constraint) []int32 {
	vars := []tnf.VarID{c.Z, c.X}
	switch c.Op {
	case tnf.ConAdd, tnf.ConMul, tnf.ConMin, tnf.ConMax:
		vars = append(vars, c.Y)
	}
	var ante []int32
	for _, v := range vars {
		if e := s.lastLoEv[v]; e >= 0 {
			ante = append(ante, e)
		}
		if e := s.lastHiEv[v]; e >= 0 {
			ante = append(ante, e)
		}
	}
	return ante
}

// TestReviseAnteIsEntrySnapshot checks that the lazily built antecedent
// snapshot of revise is the state at entry to the call, for every event
// the call records and for a conflict raised after an earlier
// projection of the same call has recorded one.
func TestReviseAnteIsEntrySnapshot(t *testing.T) {
	wide := interval.New(-10, 10)
	cases := []struct {
		name       string
		con        tnf.Constraint
		doms       []interval.Interval
		decisions  []tnf.Lit
		events     int  // constraint events the call records
		conflictOn bool // the call ends in a conflict
	}{
		{
			// z=v0, x=v1, y=v2: z rises, then x and y fall
			name: "add", con: tnf.Constraint{Op: tnf.ConAdd, Z: 0, X: 1, Y: 2},
			doms:      []interval.Interval{wide, wide, wide},
			decisions: []tnf.Lit{tnf.MkGe(1, 3), tnf.MkGe(2, 4), tnf.MkLe(0, 9)},
			events:    3,
		},
		{
			// z ∈ x·y = [1,2]·[2,10] = [2,20]: both ends of z move
			name: "mul", con: tnf.Constraint{Op: tnf.ConMul, Z: 0, X: 1, Y: 2},
			doms:      []interval.Interval{interval.New(-100, 100), wide, wide},
			decisions: []tnf.Lit{tnf.MkGe(1, 1), tnf.MkLe(1, 2), tnf.MkGe(2, 2)},
			events:    2,
		},
		{
			// z = sin(x) with x ∈ [0, 1]: both ends of z move
			name: "sin", con: tnf.Constraint{Op: tnf.ConSin, Z: 0, X: 1},
			doms:      []interval.Interval{interval.New(-2, 2), wide},
			decisions: []tnf.Lit{tnf.MkGe(1, 0), tnf.MkLe(1, 1)},
			events:    2,
		},
		{
			// x = x + y with y = 1 and x ∈ [0, 1.5]: the Z projection
			// raises x to 1, then the X projection (from the entry
			// domains) lowers it to 0.5 and runs into that new event
			name: "add-conflict-second-projection", con: tnf.Constraint{Op: tnf.ConAdd, Z: 0, X: 0, Y: 1},
			doms:       []interval.Interval{interval.New(0, 10), wide},
			decisions:  []tnf.Lit{tnf.MkGe(1, 1), tnf.MkLe(1, 1), tnf.MkLe(0, 1.5)},
			events:     1,
			conflictOn: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := reviseFixture(t, c.con, c.doms, c.decisions...)
			want := entrySnapshot(s, c.con)
			if len(want) == 0 {
				t.Fatal("fixture has no antecedents to snapshot")
			}
			mark := len(s.trail)
			cf := s.revise(0)
			if got := len(s.trail) - mark; got != c.events {
				t.Fatalf("revise recorded %d events, want %d", got, c.events)
			}
			for i := mark; i < len(s.trail); i++ {
				e := &s.trail[i]
				if e.kind != reasonConstraint || e.con != 0 {
					t.Fatalf("event %d: kind %d con %d, want the constraint", i, e.kind, e.con)
				}
				if !slices.Equal(s.anteOf(e), want) {
					t.Errorf("event %d: ante %v, want entry snapshot %v", i, s.anteOf(e), want)
				}
			}
			if (cf != nil) != c.conflictOn {
				t.Fatalf("conflict = %v, want %v", cf != nil, c.conflictOn)
			}
			if cf != nil {
				// setBound's conflict cites the snapshot plus the event it
				// ran into: the one this call recorded
				wantCf := append(slices.Clone(want), int32(mark))
				if !slices.Equal(cf.ante, wantCf) {
					t.Errorf("conflict ante %v, want %v", cf.ante, wantCf)
				}
			}
		})
	}
}

// TestReviseIntegerRoundedBound checks the integer exemption from the
// progress pre-check: on a non-integral declared domain [0.5, 10], the
// projection x ≥ 0.3 does not reach the current lower bound, but its
// rounding x ≥ 1 does, and revise must apply it.
func TestReviseIntegerRoundedBound(t *testing.T) {
	sys := tnf.NewSystem()
	z, _ := sys.AddVar("z", false, interval.New(0.3, 20))
	x, _ := sys.AddVar("x", true, interval.New(0, 10))
	y, _ := sys.AddVar("y", false, interval.Point(0))
	sys.Vars[x].Domain = interval.New(0.5, 10) // AddVar rounds; undo it
	sys.Cons = append(sys.Cons, tnf.Constraint{Op: tnf.ConAdd, Z: z, X: x, Y: y})
	s := New(sys, Options{})
	if s.lo[x] != 0.5 {
		t.Fatalf("fixture: x starts at lo %g, want the declared 0.5", s.lo[x])
	}
	if cf := s.revise(0); cf != nil {
		t.Fatal("unexpected conflict")
	}
	if s.lo[x] != 1 || s.hi[x] != 10 {
		t.Errorf("x = [%g, %g], want [1, 10]", s.lo[x], s.hi[x])
	}
}

// finalCoreMap is the map-based finalCore the solver used before the
// epoch marks: the reference the current one must match.
func finalCoreMap(s *Solver, ante []int32) []tnf.Lit {
	seen := make(map[int32]bool)
	stack := append([]int32{}, ante...)
	coreSet := make(map[tnf.Lit]bool)
	var core []tnf.Lit
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a < 0 || seen[a] {
			continue
		}
		seen[a] = true
		e := &s.trail[a]
		if e.level == 0 {
			continue
		}
		if e.kind == reasonDecision {
			if int(e.level) >= 1 && int(e.level) <= s.nAssump {
				l := s.assumptions[e.level-1]
				if !coreSet[l] {
					coreSet[l] = true
					core = append(core, l)
				}
			}
			continue
		}
		stack = append(stack, s.anteOf(e)...)
	}
	return core
}

// TestFinalCoreMatchesMapVersion builds seeded random trails — root
// facts, assumption decisions, search decisions and derived events whose
// antecedents share earlier events — and checks that finalCore returns
// the map version's core, literal for literal, over many calls on one
// solver (so stale marks of an earlier call would show).
func TestFinalCoreMatchesMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const nVars, nAssump, nLevels = 40, 6, 9
	for trial := 0; trial < 50; trial++ {
		sys := tnf.NewSystem()
		for i := 0; i < nVars; i++ {
			if _, err := sys.AddVar(fmt.Sprintf("v%d", i), false, interval.New(0, 1e6)); err != nil {
				t.Fatal(err)
			}
		}
		s := New(sys, Options{})
		nextB := make([]float64, nVars) // each event raises its var's lo by 1
		raise := func(kind reasonKind, ante []int32) {
			v := tnf.VarID(rng.Intn(nVars))
			nextB[v]++
			if cf, ok := s.setBound(v, sideLo, nextB[v], false, 0, kind, -1, -1, ante); cf != nil || !ok {
				t.Fatalf("setBound: conflict=%v applied=%v", cf, ok)
			}
		}
		someAnte := func() []int32 {
			ante := make([]int32, rng.Intn(5))
			for i := range ante {
				ante[i] = int32(rng.Intn(len(s.trail)+1)) - 1 // -1 stands for "no event"
			}
			return ante
		}
		for i := 0; i < 3; i++ {
			raise(reasonConstraint, nil) // root facts
		}
		s.assumptions = make([]tnf.Lit, nAssump)
		for i := range s.assumptions {
			s.assumptions[i] = tnf.MkGe(tnf.VarID(i), float64(trial+i))
		}
		// a repeated assumption literal must enter the core once
		s.assumptions[3] = s.assumptions[1]
		s.nAssump = nAssump
		for lvl := 1; lvl <= nLevels; lvl++ {
			s.pushLevel()
			raise(reasonDecision, nil)
			for k := rng.Intn(6); k > 0; k-- {
				raise(reasonConstraint, someAnte())
			}
		}
		for q := 0; q < 20; q++ {
			ante := someAnte()
			want := finalCoreMap(s, ante)
			if got := s.finalCore(ante); !slices.Equal(got, want) {
				t.Fatalf("trial %d query %d: finalCore(%v) = %v, want %v", trial, q, ante, got, want)
			}
		}
	}
}
