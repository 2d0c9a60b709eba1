package kind

import (
	"fmt"
	"strings"
	"testing"
	"time"

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

func TestOneInductiveSafe(t *testing.T) {
	// decay toward 0 from [0,6]: x <= 8 is 1-inductive given range [0,10]
	sys := mustParse(t, `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`)
	res := Check(sys, Options{MaxK: 8})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if res.Depth != 1 {
		t.Errorf("depth = %d, want 1", res.Depth)
	}
}

func TestBaseCaseCounterexample(t *testing.T) {
	sys := mustParse(t, `
system counter
var x : real [0, 100]
init x >= 0 and x <= 0
trans x' = x + 2
prop x <= 5
`)
	res := Check(sys, Options{MaxK: 10})
	if res.Verdict != engine.Unsafe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if res.Depth != 3 {
		t.Errorf("depth = %d, want 3 (x=6 after 3 steps)", res.Depth)
	}
	if err := sys.ValidateTrace(res.Trace, 1e-2); err != nil {
		t.Errorf("trace: %v", err)
	}
}

func TestNotKInductive(t *testing.T) {
	// safe, but the property needs an auxiliary invariant no small k
	// provides: x oscillates between 1 and 2, prop x <= 3 is inductive
	// given range... make it genuinely non-inductive: range [0,10], the
	// step case can place x = 10 and x' = 10 is out of prop... use growth
	// that is blocked only by init
	sys := mustParse(t, `
system gap
var x : real [0, 10]
init x >= 0 and x <= 1
trans x' = x
prop x <= 5
`)
	// identity transition: prop is 1-inductive (x <= 5 -> x' = x <= 5)
	res := Check(sys, Options{MaxK: 4})
	if res.Verdict != engine.Safe || res.Depth != 1 {
		t.Fatalf("identity system should be 1-inductive: %v depth %d", res.Verdict, res.Depth)
	}

	sys2 := mustParse(t, `
system gap2
var x : real [0, 100]
init x >= 0 and x <= 1
trans x' = x * (2 - x / 8)
prop x <= 40
`)
	// from x <= 40, x' can be 40*(2-5)=... growth map: at x=40: 40*(2-5)
	// = -120 clamped by range... at x=16: 16*(2-2)=0; max of x(2-x/8) on
	// [0,40] is at x=8: 8*(2-1)=8... actually f(x)=2x-x^2/8, f'=2-x/4=0
	// at x=8, f(8)=16-8=8. So from [0,40] next is in [-120, 8] and prop
	// holds: 1-inductive.
	res2 := Check(sys2, Options{MaxK: 4})
	if res2.Verdict != engine.Safe {
		t.Fatalf("gap2: %v (%s)", res2.Verdict, res2.Note)
	}
}

func TestRequiresK2(t *testing.T) {
	// two-phase toggler: b alternates; x grows only when b, shrinks when
	// !b; over one step x can grow by 1 beyond any bound, but over two
	// consecutive steps it returns. prop x <= 7 with x in [0,10],
	// init x = 0, b false.
	sys := mustParse(t, `
system toggle
var x : real [0, 10]
var b : bool
init x >= 0 and x <= 0 and !b
trans (b -> x' = x + 1) and (!b -> x' = x - 1) and (b' <-> !b) and x' >= 0 and x' <= 10
prop x <= 7
`)
	res := Check(sys, Options{MaxK: 8})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if res.Depth < 1 {
		t.Errorf("depth = %d", res.Depth)
	}
}

func TestNeverInductiveUnknown(t *testing.T) {
	// safe only because init is far from the bad region and the dynamics
	// preserve an invariant k-induction cannot see (x stays equal to y);
	// with ranges allowing x != y, the step case always finds a CTI.
	sys := mustParse(t, `
system twin
var x : real [0, 100]
var y : real [0, 100]
init x >= 1 and x <= 2 and y >= 1 and y <= 2 and x - y >= 0 and x - y <= 0
trans x' = x + y - y and y' = y + 0 * x
prop x - y <= 50
`)
	// trans: x' = x, y' = y; prop x - y <= 50: not k-inductive because a
	// start state x=100,y=0 satisfies prop... wait x-y=100 > 50 violates
	// prop, so it cannot be a start of the step case; x=60,y=20: x-y=40
	// <= 50 holds, successor identical, holds: inductive after all.
	// Use growth: x' = x + (x - y), y' = y: from x-y = 40 the gap stays
	// 40+... x-y grows: (x + (x-y)) - y = (x-y)*2: from gap 30 -> 60 > 50:
	// CTI exists at every k, so kind must give Unknown.
	sys2 := mustParse(t, `
system gapgrow
var x : real [0, 1000]
var y : real [0, 1000]
init x >= 1 and x <= 2 and y >= 1 and y <= 2 and x - y <= 0 and x - y >= 0
trans x' = x + (x - y) and y' = y
prop x - y <= 50
`)
	_ = sys
	res := Check(sys2, Options{MaxK: 3})
	if res.Verdict != engine.Unknown {
		t.Fatalf("verdict = %v, want unknown (never k-inductive)", res.Verdict)
	}
}

func TestIntegerInduction(t *testing.T) {
	sys := mustParse(t, `
system intdecay
var n : int [0, 63]
init n = 40
trans n' = n / 2 + 0 * n and n' >= 0 and n' <= 63
prop n <= 62
`)
	// n/2 is real division; n' integer forces floor-ish via equality...
	// n' = n/2 exactly requires n even; odd n has no successor (deadlock),
	// still safe. prop n <= 62: 1-inductive within range [0,63]? step:
	// n <= 62 and n' = n/2 <= 31: holds.
	res := Check(sys, Options{MaxK: 4})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
}

func TestBudget(t *testing.T) {
	sys := mustParse(t, `
system hard
var x : real [0, 1000000]
var y : real [0, 1000000]
init x >= 0 and y >= 0
trans x' = x + y * y and y' = y + x * x
prop x + y <= 999999
`)
	res := Check(sys, Options{MaxK: 100, Budget: engine.Budget{Timeout: 50 * time.Millisecond}})
	if res.Verdict == engine.Safe {
		t.Fatal("cannot be safe")
	}
}

func TestInvalidSystem(t *testing.T) {
	s := ts.New("broken")
	s.AddReal("x", 0, 1)
	res := Check(s, Options{})
	if res.Verdict != engine.Unknown || res.Note == "" {
		t.Fatalf("res = %+v", res)
	}
}

func TestSeedKSkipsStepQueries(t *testing.T) {
	// toggle needs k = 2; a SeedK = 2 hint must skip the doomed k = 1
	// step query and still land on the same verdict.
	src := `
system toggle
var x : real [0, 10]
var b : bool
init x >= 0 and x <= 0 and !b
trans (b -> x' = x + 1) and (!b -> x' = x - 1) and (b' <-> !b) and x' >= 0 and x' <= 10
prop x <= 7
`
	cold := Check(mustParse(t, src), Options{MaxK: 8})
	seeded := Check(mustParse(t, src), Options{MaxK: 8, SeedK: 2})
	if cold.Verdict != engine.Safe || seeded.Verdict != engine.Safe {
		t.Fatalf("cold = %v, seeded = %v", cold.Verdict, seeded.Verdict)
	}
	if seeded.Depth != cold.Depth {
		t.Errorf("seeded depth = %d, cold depth = %d", seeded.Depth, cold.Depth)
	}
	if seeded.Stats["stepSolves"] >= cold.Stats["stepSolves"] {
		t.Errorf("seeded stepSolves = %d, cold = %d: hint skipped nothing",
			seeded.Stats["stepSolves"], cold.Stats["stepSolves"])
	}
}

func TestSeedKKeepsBaseCases(t *testing.T) {
	// a wildly wrong SeedK must not delay or mask a counterexample:
	// base cases run at every depth regardless.
	sys := mustParse(t, `
system counter
var x : real [0, 100]
init x >= 0 and x <= 0
trans x' = x + 2
prop x <= 5
`)
	res := Check(sys, Options{MaxK: 10, SeedK: 9})
	if res.Verdict != engine.Unsafe || res.Depth != 3 {
		t.Fatalf("verdict = %v depth %d, want Unsafe at 3", res.Verdict, res.Depth)
	}
	if res.Stats["stepSolves"] != 0 {
		t.Errorf("stepSolves = %d before SeedK, want 0", res.Stats["stepSolves"])
	}
}

func TestSeedKAtProofDepth(t *testing.T) {
	// SeedK equal to the real induction depth keeps the verdict and depth.
	sys := mustParse(t, `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`)
	res := Check(sys, Options{MaxK: 8, SeedK: 1})
	if res.Verdict != engine.Safe || res.Depth != 1 {
		t.Fatalf("verdict = %v depth %d, want Safe at 1", res.Verdict, res.Depth)
	}
}

func TestStats(t *testing.T) {
	sys := mustParse(t, `
system d
var x : real [0, 10]
init x <= 1
trans x' = x / 2
prop x <= 9
`)
	res := Check(sys, Options{MaxK: 4})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.Stats["baseSolves"] == 0 || res.Stats["stepSolves"] == 0 {
		t.Errorf("stats = %v", res.Stats)
	}
}

// TestSpuriousBaseBlocksSafe: Init reaches x = 1.005, a real violation
// of x <= 1 that lies within the validation tolerance (0.01).  Init also
// fixes y = x / 3, which no point state satisfies exactly (the quotient
// is rounded), so the depth-0 base candidate is not an exact trace,
// fails validation, and depth 0 is never shown free of counterexamples.
// The step case is UNSAT at k = 1 (x <= 1 halves), but Safe at 1 would
// rest on that base case — and be wrong: kind ends Unknown and names the
// depth.  With Init inside the property the same step case proves Safe.
func TestSpuriousBaseBlocksSafe(t *testing.T) {
	const src = `
system boundary
var x : real [0, 10]
var y : real [0, 10]
init x >= 0.5 and x <= %s and y = x / 3
trans x' = x / 2 and y' = y / 2
prop x <= 1
`
	res := Check(mustParse(t, fmt.Sprintf(src, "1.005")), Options{MaxK: 4})
	if res.Verdict != engine.Unknown || res.Stats["spurious"] != 1 || res.Depth != 1 {
		t.Fatalf("verdict %v at depth %d, spurious %d (%s); want unknown at 1 after one spurious candidate",
			res.Verdict, res.Depth, res.Stats["spurious"], res.Note)
	}
	if !strings.Contains(res.Note, "depth 0") {
		t.Errorf("note %q does not name depth 0", res.Note)
	}
	res = Check(mustParse(t, fmt.Sprintf(src, "0.9")), Options{MaxK: 4})
	if res.Verdict != engine.Safe || res.Depth != 1 || res.Stats["spurious"] != 0 {
		t.Errorf("with Init inside the property: %v at depth %d, spurious %d (%s); want safe at 1",
			res.Verdict, res.Depth, res.Stats["spurious"], res.Note)
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
	if res.Verdict != engine.Unknown || res.Note != "timeout" || res.Stats["baseSolves"] != 1 {
		t.Errorf("cancelled mid-Solve: %v (%q) after %d solves; want unknown (\"timeout\") in the first", res.Verdict, res.Note, res.Stats["baseSolves"])
	}
	defer icp.LowerCapsForTest(50, 1000)()
	res = Check(sys, Options{})
	if res.Verdict != engine.Unknown || res.Note != "solver budget (base)" {
		t.Errorf("at the cap: %v (%q); want unknown (\"solver budget (base)\")", res.Verdict, res.Note)
	}
}
