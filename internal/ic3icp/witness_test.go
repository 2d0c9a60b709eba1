package ic3icp

import (
	"reflect"
	"testing"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/engine"
	"icpic3/internal/icp"
	"icpic3/internal/tnf"
)

// acceptSrc steps x exactly (x' = -x) and y with rounding (y' = y + 5),
// so successor enclosures are points in x and an ulp wide in y.
const acceptSrc = `
system accept
var x : real [-10, 10]
var y : real [0, 10]
init x >= 9 and y >= 9
trans x' = -x and y' = y + 5
prop x <= 9.5
`

// TestProbeAcceptRejects pins the accept predicate of the probes'
// exact-witness exit on hand-made boxes: it accepts a midpoint outside
// the cube whose successor provably lies in the cube and the domains,
// and rejects each way of falling short of that.
func TestProbeAcceptRejects(t *testing.T) {
	ch := newTestChecker(t, acceptSrc)
	if ch.stepper == nil {
		t.Fatal("no stepper for x' = -x, y' = y + 5")
	}
	x, y := ch.curIDs[0], ch.curIDs[1]
	// point returns the degenerate box (x, y) over the main solver's ids
	point := func(px, py float64) ([]float64, []float64) {
		lo, hi := make([]float64, ch.main.NumVars()), make([]float64, ch.main.NumVars())
		lo[x], hi[x], lo[y], hi[y] = px, px, py, py
		return lo, hi
	}
	cases := []struct {
		name   string
		c      icpCube
		px, py float64
		inf    []icpCube
		want   bool
	}{
		// (-3, 2) steps to (3, 7 ± ulp)
		{"steps into the cube", icpCube{tnf.MkGe(x, 3), tnf.MkLe(x, 3)}, -3, 2, nil, true},
		{"point inside the cube", icpCube{tnf.MkLe(x, 5)}, -3, 2, nil, false},
		{"enclosure straddles a literal", icpCube{tnf.MkGe(x, 3), tnf.MkLe(y, 7)}, -3, 2, nil, false},
		{"strict literal at equality", icpCube{tnf.MkGt(x, 3)}, -3, 2, nil, false},
		{"point inside an F_∞ cube", icpCube{tnf.MkGe(x, 3)}, -3, 2, []icpCube{{tnf.MkLe(x, -2)}}, false},
		{"point outside every F_∞ cube", icpCube{tnf.MkGe(x, 3)}, -3, 2, []icpCube{{tnf.MkLe(x, -4)}, {tnf.MkGe(y, 3)}}, true},
		{"enclosure leaves the domain", icpCube{tnf.MkGe(x, 3)}, -3, 8, nil, false},
		{"point outside the domain", icpCube{tnf.MkLe(x, 5)}, 11, 2, nil, false},
	}
	for _, c := range cases {
		ch.infCubes = c.inf
		lo, hi := point(c.px, c.py)
		if got := ch.steppedInto(c.c, lo, hi); got != c.want {
			t.Errorf("%s: steppedInto(%s, (%v, %v)) = %v, want %v", c.name, ch.exportCube(c.c), c.px, c.py, got, c.want)
		}
	}
	// a wide box is judged at its midpoint: [-5, -1] x [1, 3] -> (-3, 2)
	ch.infCubes = nil
	lo, hi := point(-5, 1)
	hi[x], hi[y] = -1, 3
	if !ch.steppedInto(icpCube{tnf.MkGe(x, 3), tnf.MkLe(x, 3)}, lo, hi) {
		t.Error("the midpoint (-3, 2) of [-5, -1] x [1, 3] steps to x = 3, but the box was rejected")
	}
}

// TestProbeAcceptPartialInit: a point where a partial subterm of Init or
// Prop is undefined has no model of the compiled query, so it is no
// witness even when Trans steps it into the cube.
func TestProbeAcceptPartialInit(t *testing.T) {
	ch := newTestChecker(t, `
system partial
var x : real [-10, 10]
init sqrt(x) >= 3
trans x' = -x
prop x <= 9.5
`)
	x := ch.curIDs[0]
	lo, hi := make([]float64, ch.main.NumVars()), make([]float64, ch.main.NumVars())
	lo[x], hi[x] = -3, -3
	if ch.steppedInto(icpCube{tnf.MkGe(x, 3)}, lo, hi) {
		t.Error("accepted x = -3, where sqrt(x) in Init is undefined")
	}
	lo[x], hi[x] = 3, 3
	if !ch.steppedInto(icpCube{tnf.MkLe(x, -3)}, lo, hi) {
		t.Error("rejected x = 3, which steps to -3 with every subterm defined")
	}
}

// TestNoStepperNoExit: systems without a stepper ask every probe in full.
func TestNoStepperNoExit(t *testing.T) {
	for _, src := range []string{`
system rel
var x : real [0, 10]
init x <= 1
trans x' <= x / 2 + 1 and x' >= x / 2
prop x <= 5
`, `
system n
var n : int [0, 100]
init n = 1
trans n' = min(2 * n, 64)
prop n <= 64
`} {
		sys := mustParse(t, src)
		res, _, ch := checkFull(sys, Options{Budget: engine.Budget{Timeout: 30 * time.Second}})
		if ch.stepper != nil || res.Stats["infAccepted"] != 0 {
			t.Errorf("%s: stepper %v, infAccepted %d; want none", sys.Name, ch.stepper != nil, res.Stats["infAccepted"])
		}
	}
}

// TestStaleInfWitnessCleared: a probe skipped because the cube meets
// Init leaves no obstruction box behind, so inductiveAndSeparateCTG
// never promotes an earlier probe's box.
func TestStaleInfWitnessCleared(t *testing.T) {
	ch := newTestChecker(t, logisticSrc)
	x := ch.curIDs[0]
	ch.infWitness = icpCube{tnf.MkGe(x, 0.6)} // left by an earlier probe
	ch.ctgBudget = 16
	if ch.inductiveAndSeparateCTG(icpCube{tnf.MkLe(x, 0.3)}) {
		t.Fatal("x <= 0.3 meets Init = [0.1, 0.4] but was promoted")
	}
	if ch.infWitness != nil {
		t.Errorf("infWitness = %s after a probe that never ran", ch.exportCube(ch.infWitness))
	}
	if ch.ctgBudget != 16 || ch.stats["infQueries"] != 0 {
		t.Errorf("ctgBudget %d, infQueries %d: the stale box was promoted", ch.ctgBudget, ch.stats["infQueries"])
	}
}

// TestProbeExitSameAnswers asks every F_∞ probe of two full runs a
// second time on a shadow probe solver that never takes the exit and so
// replays the probes as a run without it would.  Each probe must get the
// same answer from both, an accepted probe must be satisfiable, and on
// these two runs a probe whose box is read must find the same box (on
// pendulum-safe-1 a few do not: the exited probes learned fewer clauses,
// DESIGN.md §10).
func TestProbeExitSameAnswers(t *testing.T) {
	pendulum := benchmarks.Must(benchmarks.Pendulum(true, 2))
	if err := pendulum.Sys.ParseProp("th <= 1.224"); err != nil {
		t.Fatal(err)
	}
	for _, in := range []benchmarks.Instance{pendulum, benchmarks.Must(benchmarks.Vehicle(true, 1))} {
		var shadow *querySolver
		var probes, accepted, boxes int
		setup := func(ch *checker) {
			ch.onProbe = func(c icpCube, needBox bool, r icp.Result, acc bool) {
				if shadow == nil {
					shadow = ch.newQuerySolver(probeRebuildSlack, true)
				}
				want, _ := ch.oneShot(shadow, 0, c, nil)
				probes++
				if acc {
					accepted++
					if want.Status == icp.StatusUnsat {
						t.Errorf("%s: probe %d accepted, but %s is self-inductive", in.Name, probes, ch.exportCube(c))
					}
				}
				if (r.Status == icp.StatusUnsat) != (want.Status == icp.StatusUnsat) {
					t.Errorf("%s: probe %d of %s: %v with the exit, %v without", in.Name, probes, ch.exportCube(c), r.Status, want.Status)
				}
				if needBox && r.Status == icp.StatusSat {
					boxes++
					if got, w := ch.boxCube(r.Box, ch.curIDs), ch.boxCube(want.Box, ch.curIDs); !reflect.DeepEqual(got, w) {
						t.Errorf("%s: probe %d: obstruction box %s with the exit, %s without", in.Name, probes, ch.exportCube(got), ch.exportCube(w))
					}
				}
			}
		}
		res, _, _ := checkWith(in.Sys, Options{Budget: engine.Budget{Timeout: time.Minute}}, setup)
		if res.Verdict != in.Expected {
			t.Errorf("%s: verdict %v, want %v", in.Name, res.Verdict, in.Expected)
		}
		if accepted == 0 || int64(accepted) != res.Stats["infAccepted"] {
			t.Errorf("%s: %d probes accepted, infAccepted %d; want the same nonzero count", in.Name, accepted, res.Stats["infAccepted"])
		}
		t.Logf("%s: %d probes, %d accepted, %d boxes read", in.Name, probes, accepted, boxes)
	}
}

// BenchmarkInfProbe times one satisfiable and one UNSAT F_∞ probe on
// pendulum-safe-2 at th <= 1.224 (the ic3-nonlinear instance), as asked
// by promotion: no box needed, so the satisfiable probe may take the
// exact-witness exit.
func BenchmarkInfProbe(b *testing.B) {
	in := benchmarks.Must(benchmarks.Pendulum(true, 2))
	if err := in.Sys.ParseProp("th <= 1.224"); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		cube  func(th, w tnf.VarID) icpCube
		unsat bool
	}{
		// states with th in [1, 1.1] are entered from below
		{"sat", func(th, w tnf.VarID) icpCube { return icpCube{tnf.MkGe(th, 1), tnf.MkLe(th, 1.1)} }, false},
		// w' <= 0.76 w + 0.2 <= 1.72 on the domain: w >= 1.8 has no predecessor
		{"unsat", func(th, w tnf.VarID) icpCube { return icpCube{tnf.MkGe(w, 1.8)} }, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			ch := buildChecker(b, in.Sys)
			cube := c.cube(ch.curIDs[0], ch.curIDs[1])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ch.selfInductive(cube, false) != c.unsat {
					b.Fatalf("%s probe answered %v", c.name, !c.unsat)
				}
			}
		})
	}
}
