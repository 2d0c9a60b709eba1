package ic3icp

import (
	"testing"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/engine"
	"icpic3/internal/icp"
	"icpic3/internal/ts"
)

func mustParse(t *testing.T, src string) *ts.System {
	t.Helper()
	s, err := ts.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkInvariantOnSamples verifies the reported invariant cubes are
// disjoint from a sampled set of reachable states.
func checkInvariantOnSamples(t *testing.T, sys *ts.System, res engine.Result, traces [][]ts.State) {
	t.Helper()
	inCube := func(st ts.State, c engine.Cube) bool {
		for _, b := range c {
			v := st[b.Var]
			if b.Le {
				if v > b.B || (b.Strict && v == b.B) {
					return false
				}
			} else {
				if v < b.B || (b.Strict && v == b.B) {
					return false
				}
			}
		}
		return true
	}
	for _, tr := range traces {
		for _, st := range tr {
			for _, c := range res.Certificate.Cubes {
				if inCube(st, c) {
					t.Errorf("reachable state %v inside blocked cube %v", st, c)
				}
			}
		}
	}
}

// simulate produces a concrete trajectory by a deterministic update map.
func simulate(init ts.State, steps int, f func(ts.State) ts.State) []ts.State {
	tr := []ts.State{init}
	st := init
	for i := 0; i < steps; i++ {
		st = f(st)
		tr = append(tr, st)
	}
	return tr
}

func TestSafeDecay(t *testing.T) {
	sys := mustParse(t, `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`)
	res := Check(sys, Options{})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	tr := simulate(ts.State{"x": 6}, 10, func(s ts.State) ts.State { return ts.State{"x": s["x"] / 2} })
	checkInvariantOnSamples(t, sys, res, [][]ts.State{tr})
}

func TestUnsafeCounter(t *testing.T) {
	sys := mustParse(t, `
system counter
var x : real [0, 100]
init x >= 0 and x <= 0
trans x' = x + 1
prop x <= 5
`)
	res := Check(sys, Options{})
	if res.Verdict != engine.Unsafe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if len(res.Trace) != 7 {
		t.Errorf("trace length = %d, want 7 (x=0..6)", len(res.Trace))
	}
	if err := sys.ValidateTrace(res.Trace, 1e-2); err != nil {
		t.Errorf("trace: %v", err)
	}
}

func TestZeroStepViolation(t *testing.T) {
	sys := mustParse(t, `
system bad0
var x : real [0, 10]
init x >= 7
trans x' = x
prop x <= 5
`)
	res := Check(sys, Options{})
	if res.Verdict != engine.Unsafe || res.Depth != 0 {
		t.Fatalf("verdict = %v depth %d (%s)", res.Verdict, res.Depth, res.Note)
	}
}

func TestNonlinearLogisticSafe(t *testing.T) {
	sys := mustParse(t, `
system logistic
var x : real [0, 1]
init x >= 0.1 and x <= 0.4
trans x' = 2.5 * x * (1 - x)
prop x <= 0.9
`)
	res := Check(sys, Options{})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	tr := simulate(ts.State{"x": 0.3}, 30, func(s ts.State) ts.State {
		return ts.State{"x": 2.5 * s["x"] * (1 - s["x"])}
	})
	checkInvariantOnSamples(t, sys, res, [][]ts.State{tr})
}

func TestNonlinearQuadUnsafe(t *testing.T) {
	sys := mustParse(t, `
system quad
var x : real [0, 4000]
init x >= 3 and x <= 3
trans x' = x * x / 2
prop x <= 100
`)
	res := Check(sys, Options{})
	if res.Verdict != engine.Unsafe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if res.Depth != 4 {
		t.Errorf("depth = %d, want 4", res.Depth)
	}
	if err := sys.ValidateTrace(res.Trace, 1); err != nil {
		t.Errorf("trace: %v", err)
	}
}

func TestThermostatSafe(t *testing.T) {
	sys := mustParse(t, `
system thermostat
var T : real [0, 50]
var on : bool
init T >= 20 and T <= 22 and on
trans (on -> T' = T + 0.5 * (30 - T)) and \
      (!on -> T' = T - 0.25 * T) and \
      (on' <-> T' <= 25)
prop T <= 32
`)
	res := Check(sys, Options{})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
}

func TestThermostatUnsafe(t *testing.T) {
	sys := mustParse(t, `
system hotstat
var T : real [0, 80]
var on : bool
init T >= 20 and T <= 22 and on
trans (on -> T' = T + 0.5 * (70 - T)) and \
      (!on -> T' = T - 0.25 * T) and \
      (on' <-> T' <= 60)
prop T <= 40
`)
	res := Check(sys, Options{})
	if res.Verdict != engine.Unsafe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if err := sys.ValidateTrace(res.Trace, 1e-1); err != nil {
		t.Errorf("trace: %v", err)
	}
}

func TestGeneralizationModes(t *testing.T) {
	src := `
system decay2
var x : real [0, 16]
var y : real [0, 16]
init x >= 0 and x <= 2 and y >= 0 and y <= 2
trans x' = x / 2 + 1 and y' = y / 4 + 0.5
prop x <= 9 or y <= 9
`
	// Widening is what makes IC3-ICP converge on continuous state spaces:
	// without it the engine enumerates ε-boxes of the bad region and must
	// give up (the Table III ablation shape).  GenCoreWiden must prove
	// safety; the weaker modes may only answer Unknown within the budget.
	for _, mode := range []GenMode{GenNone, GenCore, GenCoreWiden} {
		sys := mustParse(t, src)
		res := Check(sys, Options{
			Generalize: mode,
			Budget:     engine.Budget{Timeout: 5 * time.Second},
		})
		switch mode {
		case GenCoreWiden:
			if res.Verdict != engine.Safe {
				t.Errorf("mode %v: verdict = %v (%s)", mode, res.Verdict, res.Note)
			}
		default:
			if res.Verdict == engine.Unsafe {
				t.Errorf("mode %v: wrong verdict unsafe", mode)
			}
		}
	}
}

func TestGenModeString(t *testing.T) {
	if GenNone.String() != "none" || GenCore.String() != "core" || GenCoreWiden.String() != "core+widen" {
		t.Error("GenMode strings")
	}
}

func TestIntegerSystem(t *testing.T) {
	sys := mustParse(t, `
system intloop
var n : int [0, 7]
init n = 0
trans n' = ite(n >= 5, 0, n + 1)
prop n <= 6
`)
	res := Check(sys, Options{})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
}

func TestIntegerUnsafe(t *testing.T) {
	sys := mustParse(t, `
system intbad
var n : int [0, 100]
init n = 1
trans n' = 2 * n
prop n <= 30
`)
	res := Check(sys, Options{})
	if res.Verdict != engine.Unsafe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	// 1 2 4 8 16 32: 6 states
	if len(res.Trace) != 6 {
		t.Errorf("trace length = %d, want 6", len(res.Trace))
	}
}

func TestBudgetTimeout(t *testing.T) {
	sys := mustParse(t, `
system hard
var x : real [0, 1000000]
var y : real [0, 1000000]
init x >= 0 and x <= 1 and y >= 0 and y <= 1
trans x' = x + y * y / 1000 and y' = y + x * x / 1000
prop x + y <= 999999
`)
	res := Check(sys, Options{Budget: engine.Budget{Timeout: 100 * time.Millisecond}})
	if res.Verdict == engine.Unsafe {
		t.Fatalf("cannot be unsafe quickly: %v", res)
	}
	if res.Runtime > 10*time.Second {
		t.Errorf("budget not respected: %v", res.Runtime)
	}
}

func TestFrameBudget(t *testing.T) {
	sys := mustParse(t, `
system deep
var x : real [0, 1000]
init x >= 0 and x <= 0
trans x' = x + 1
prop x <= 900
`)
	res := Check(sys, Options{MaxFrames: 4})
	if res.Verdict != engine.Unknown {
		t.Fatalf("verdict = %v, want unknown under tiny frame budget", res.Verdict)
	}
}

// TestUnknownReportsFrameDepth: a run cut short inside the blocking
// loop reports the frame bound it reached as its depth, like the
// frame-loop returns do (engine.Result: "bound reached for Unknown").
func TestUnknownReportsFrameDepth(t *testing.T) {
	suite, err := benchmarks.Suite(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range suite {
		if in.Name != "pendulum-safe-1" {
			continue
		}
		res := Check(in.Sys, Options{Budget: engine.Budget{Timeout: 300 * time.Millisecond}})
		if res.Verdict != engine.Unknown {
			t.Fatalf("verdict = %v (%s), want unknown under a 300ms budget", res.Verdict, res.Note)
		}
		if res.Depth == 0 || int64(res.Depth) != res.Stats["frames"] {
			t.Fatalf("depth = %d, frames = %d (%s)", res.Depth, res.Stats["frames"], res.Note)
		}
		return
	}
	t.Fatal("pendulum-safe-1 missing from Suite(2)")
}

func TestInvalidSystem(t *testing.T) {
	s := ts.New("broken")
	s.AddReal("x", 0, 1)
	res := Check(s, Options{})
	if res.Verdict != engine.Unknown || res.Note == "" {
		t.Fatalf("res = %+v", res)
	}
}

func TestStatsAndInfo(t *testing.T) {
	sys := mustParse(t, `
system d
var x : real [0, 10]
init x <= 1
trans x' = x / 2
prop x <= 9
`)
	res := Check(sys, Options{})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.Stats["queries"] == 0 {
		t.Errorf("stats = %v", res.Stats)
	}
	if res.Stats["frames"] == 0 {
		t.Error("frames not recorded")
	}
	if res.Runtime <= 0 {
		t.Error("runtime not recorded")
	}
}

func TestTwoVarCoupledSafe(t *testing.T) {
	// rotation-like contraction: both vars shrink toward a bounded region
	sys := mustParse(t, `
system spiral
var x : real [-4, 4]
var y : real [-4, 4]
init x >= -1 and x <= 1 and y >= -1 and y <= 1
trans x' = 0.5 * x - 0.3 * y and y' = 0.3 * x + 0.5 * y
prop x <= 3 and x >= -3 and y <= 3 and y >= -3
`)
	res := Check(sys, Options{})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
}

func TestSinSystemSafe(t *testing.T) {
	sys := mustParse(t, `
system pend
var x : real [-2, 2]
init x >= -0.5 and x <= 0.5
trans x' = 0.9 * sin(x)
prop x <= 1.5 and x >= -1.5
`)
	res := Check(sys, Options{})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
}

// hardSrc's violation query is UNSAT (the polynomial is identically 0),
// but interval bisection refutes it only on boxes about 1e-3 wide, so
// the first Solve on it runs for minutes unless it is stopped.
const hardSrc = `
system hard
var x : real [0, 100]
var y : real [0, 100]
init x >= 0 and y >= 0
trans x' = x and y' = y
prop (x + y) * (x + y) - x * x - 2 * x * y - y * y <= 0.5
`

// TestUnknownNotes: an Unknown after a solver StatusUnknown reads
// "timeout" when the budget was cancelled mid-Solve, and "solver budget
// (...)" only when the query hit the per-Solve cap.
func TestUnknownNotes(t *testing.T) {
	sys, err := ts.Parse(hardSrc)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	time.AfterFunc(20*time.Millisecond, func() { close(done) })
	res := Check(sys, Options{Budget: engine.Budget{}.WithDone(done)})
	if res.Verdict != engine.Unknown || res.Note != "timeout" {
		t.Errorf("cancelled mid-Solve: %v (%q); want unknown (\"timeout\")", res.Verdict, res.Note)
	}
	defer icp.LowerCapsForTest(50, 1000)()
	res = Check(sys, Options{})
	if res.Verdict != engine.Unknown || res.Note != "solver budget (0-step)" {
		t.Errorf("at the cap: %v (%q); want unknown (\"solver budget (0-step)\")", res.Verdict, res.Note)
	}
}
