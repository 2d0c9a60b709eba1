package bmc

import (
	"math"
	"testing"
	"time"

	"icpic3/internal/engine"
	"icpic3/internal/icp"
	"icpic3/internal/interval"
	"icpic3/internal/tnf"
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

func TestLinearCounterUnsafe(t *testing.T) {
	sys := mustParse(t, `
system counter
var x : real [0, 100]
init x >= 0 and x <= 0
trans x' = x + 1
prop x <= 5
`)
	res := Check(sys, Options{MaxDepth: 20})
	if res.Verdict != engine.Unsafe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if res.Depth != 6 {
		t.Errorf("depth = %d, want 6", res.Depth)
	}
	if err := sys.ValidateTrace(res.Trace, 1e-2); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
}

func TestImmediateViolation(t *testing.T) {
	sys := mustParse(t, `
system bad0
var x : real [0, 10]
init x >= 7
trans x' = x
prop x <= 5
`)
	res := Check(sys, Options{MaxDepth: 5})
	if res.Verdict != engine.Unsafe || res.Depth != 0 {
		t.Fatalf("verdict = %v depth %d", res.Verdict, res.Depth)
	}
}

func TestSafeSystemExhaustsDepth(t *testing.T) {
	sys := mustParse(t, `
system decay
var x : real [0, 10]
init x >= 5 and x <= 6
trans x' = x / 2
prop x <= 8
`)
	res := Check(sys, Options{MaxDepth: 8})
	if res.Verdict != engine.Unknown {
		t.Fatalf("verdict = %v, BMC cannot prove safety", res.Verdict)
	}
	if res.Depth != 8 {
		t.Errorf("depth = %d", res.Depth)
	}
}

func TestNonlinearUnsafe(t *testing.T) {
	// logistic-style growth crossing a threshold
	sys := mustParse(t, `
system quad
var x : real [0, 100]
init x >= 2 and x <= 2
trans x' = x * x / 2
prop x <= 30
`)
	// x: 2 -> 2 -> 2 ... wait: 2*2/2 = 2 (fixpoint).  Use 3:
	res := Check(sys, Options{MaxDepth: 10})
	if res.Verdict != engine.Unknown {
		t.Fatalf("fixpoint system should be unknown, got %v", res.Verdict)
	}

	sys2 := mustParse(t, `
system quad2
var x : real [0, 1000]
init x >= 3 and x <= 3
trans x' = x * x / 2
prop x <= 100
`)
	// 3 -> 4.5 -> 10.125 -> 51.26 -> 1313 (violates, but also exceeds range)
	// range is [0,1000] so x'=1313 out of range: trans has no successor
	// at that point; the violation x > 100 must occur at x = 1313 <= 1000?
	// no: 51.26^2/2 = 1313 > 1000 leaves the state space; BUT x=51.26 is
	// fine and 10.125^2/2=51.26 <= 100... the first prop violation within
	// range would need 100 < x <= 1000: from x0 in [sqrt(200), sqrt(2000)]
	// = [14.1, 44.7]: reachable: 10.125 -> 51.26 > 44.7. Hmm: 51.26 is in
	// range and 51.26 <= 100 satisfies prop; next state 1313 out of range.
	// So quad2 is actually SAFE within the modeled state space.
	res2 := Check(sys2, Options{MaxDepth: 8})
	if res2.Verdict != engine.Unknown {
		t.Fatalf("quad2: got %v (%s)", res2.Verdict, res2.Note)
	}

	sys3 := mustParse(t, `
system quad3
var x : real [0, 4000]
init x >= 3 and x <= 3
trans x' = x * x / 2
prop x <= 100
`)
	// with range 4000, x=1313.9 is reachable and violates prop at depth 4
	res3 := Check(sys3, Options{MaxDepth: 8})
	if res3.Verdict != engine.Unsafe {
		t.Fatalf("quad3: got %v (%s)", res3.Verdict, res3.Note)
	}
	if res3.Depth != 4 {
		t.Errorf("quad3 depth = %d, want 4", res3.Depth)
	}
	if err := sys3.ValidateTrace(res3.Trace, 1); err != nil {
		t.Errorf("trace: %v", err)
	}
}

func TestMixedBooleanMode(t *testing.T) {
	sys := mustParse(t, `
system toggler
var x : real [-50, 50]
var up : bool
init x >= 0 and x <= 0 and up
trans (up -> x' = x + 3) and (!up -> x' = x - 1) and (up' <-> !up)
prop x <= 4
`)
	// x: 0 (up) -> 3 (down) -> 2 (up) -> 5 violates at depth 3
	res := Check(sys, Options{MaxDepth: 10})
	if res.Verdict != engine.Unsafe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if res.Depth != 3 {
		t.Errorf("depth = %d, want 3", res.Depth)
	}
}

func TestIntegerSystem(t *testing.T) {
	sys := mustParse(t, `
system intcounter
var n : int [0, 1000]
init n = 0
trans n' = n + 3
prop n != 12
`)
	res := Check(sys, Options{MaxDepth: 10})
	if res.Verdict != engine.Unsafe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if res.Depth != 4 {
		t.Errorf("depth = %d, want 4", res.Depth)
	}
	// trace values must be integral
	for _, st := range res.Trace {
		if st["n"] != math.Trunc(st["n"]) {
			t.Errorf("non-integer value %v", st["n"])
		}
	}
}

func TestBudgetTimeout(t *testing.T) {
	sys := mustParse(t, `
system slow
var x : real [0, 1000000]
var y : real [0, 1000000]
init x >= 0 and y >= 0
trans x' = x + y * y and y' = y + x * x
prop x + y <= 1000000
`)
	res := Check(sys, Options{
		MaxDepth: 1000,
		Budget:   engine.Budget{Timeout: 50 * time.Millisecond},
	})
	if res.Verdict == engine.Safe {
		t.Fatalf("cannot be safe")
	}
	if res.Runtime > 5*time.Second {
		t.Errorf("budget not respected: %v", res.Runtime)
	}
}

func TestInvalidSystem(t *testing.T) {
	sys := ts.New("broken")
	sys.AddReal("x", 0, 1)
	res := Check(sys, Options{})
	if res.Verdict != engine.Unknown || res.Note == "" {
		t.Fatalf("res = %+v", res)
	}
}

func TestStatsPresent(t *testing.T) {
	sys := mustParse(t, `
system c
var x : real [0, 100]
init x <= 0
trans x' = x + 1
prop x <= 3
`)
	res := Check(sys, Options{MaxDepth: 10})
	if res.Verdict != engine.Unsafe {
		t.Fatal("should be unsafe")
	}
	if res.Stats["solves"] == 0 {
		t.Errorf("stats = %v", res.Stats)
	}
	if res.Runtime <= 0 {
		t.Error("runtime not recorded")
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
	sys := mustParse(t, hardSrc)
	done := make(chan struct{})
	time.AfterFunc(20*time.Millisecond, func() { close(done) })
	res := Check(sys, Options{Budget: engine.Budget{}.WithDone(done)})
	if res.Verdict != engine.Unknown || res.Note != "timeout" || res.Stats["solves"] != 1 {
		t.Errorf("cancelled mid-Solve: %v (%q) after %d solves; want unknown (\"timeout\") in the first", res.Verdict, res.Note, res.Stats["solves"])
	}
	defer icp.LowerCapsForTest(50, 1000)()
	res = Check(sys, Options{})
	if res.Verdict != engine.Unknown || res.Note != "solver budget (bad query)" {
		t.Errorf("at the cap: %v (%q); want unknown (\"solver budget (bad query)\")", res.Verdict, res.Note)
	}
}

// TestUnknownPlainBaseStops: a depth whose robust violation query is
// UNSAT but whose plain one stops undecided was never decided, so bmc
// ends there instead of going on to the next depth.  The robust query
// is easy (x > 1 + 2·tol lies outside x's domain); the plain one is
// hardSrc's query at the per-Solve cap.
func TestUnknownPlainBaseStops(t *testing.T) {
	sys := mustParse(t, `
system hardplain
var x : real [0, 1.00001]
var y : real [0, 100]
init x >= 0 and y >= 0
trans x' = x and y' = y
prop x <= 1 or (x + y) * (x + y) - x * x - 2 * x * y - y * y <= 0.5
`)
	defer icp.LowerCapsForTest(50, 1000)()
	res := Check(sys, Options{MaxDepth: 4})
	if res.Verdict != engine.Unknown || res.Depth != 0 || res.Note != "solver budget (bad query)" || res.Stats["solves"] != 2 {
		t.Errorf("%v at depth %d (%q) after %d solves; want unknown at depth 0 (\"solver budget (bad query)\") after 2",
			res.Verdict, res.Depth, res.Note, res.Stats["solves"])
	}
}

// TestBaseCaseRestricted: BaseCase asks the robust violation, then the
// plain one only when the robust one is UNSAT, and a step-0 restriction
// narrows both.  x counts up by 1 from [0, 1]; at depth 2 it lies in
// [2, 3], and x <= 2.1 is violated robustly (by more than 2·tol = 0.02)
// unless step 0 is confined to x <= 0.11.
func TestBaseCaseRestricted(t *testing.T) {
	sys := mustParse(t, `
system count
var x : real [0, 10]
init x >= 0 and x <= 1
trans x' = x + 1
prop x <= 2.1
`)
	tol := ts.ValidateTol(engine.DefaultEps)
	for _, c := range []struct {
		name   string
		cube   []tnf.Lit
		status icp.Status
		robust bool
		solves int64
	}{
		{"unrestricted", nil, icp.StatusSat, true, 1},
		{"x >= 0.5", []tnf.Lit{tnf.MkGe(0, 0.5)}, icp.StatusSat, true, 1},
		{"x <= 0.11: plain violation only", []tnf.Lit{tnf.MkLe(0, 0.11)}, icp.StatusSat, false, 2},
		{"x <= 0.05: no violation", []tnf.Lit{tnf.MkLe(0, 0.05)}, icp.StatusUnsat, false, 2},
	} {
		u, err := NewUnrolling(sys, icp.Options{Eps: engine.DefaultEps}, true, tol)
		if err != nil {
			t.Fatal(err)
		}
		u.Restrict(c.cube)
		for u.Depth() < 2 {
			if err := u.Extend(); err != nil {
				t.Fatal(err)
			}
		}
		b, err := u.BaseCase(engine.Budget{})
		if err != nil || b.Status != c.status || b.Robust != c.robust || b.Solves != c.solves {
			t.Errorf("%s: %v (robust %v) after %d solves, %v; want %v (robust %v) after %d",
				c.name, b.Status, b.Robust, b.Solves, err, c.status, c.robust, c.solves)
		}
		if b.Trace == nil {
			continue
		}
		if err := sys.ValidateTrace(b.Trace, tol); err != nil {
			t.Errorf("%s: trace %v fails validation: %v", c.name, b.Trace, err)
		}
		for _, l := range c.cube {
			if x := b.Trace[0]["x"]; !l.HoldsOn(interval.Point(x)) {
				t.Errorf("%s: trace starts at x = %g, outside %v", c.name, x, l)
			}
		}
	}
}
