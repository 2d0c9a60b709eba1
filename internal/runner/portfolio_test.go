package runner

import (
	"strings"
	"testing"
	"time"

	"icpic3/internal/engine"
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

func TestPortfolioSafe(t *testing.T) {
	sys := mustParse(t, `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`)
	res := Check(sys, Spec{Engine: "portfolio", Budget: engine.Budget{Timeout: 30 * time.Second}})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if !strings.Contains(res.Note, "decided by") {
		t.Errorf("note = %q", res.Note)
	}
}

func TestPortfolioUnsafe(t *testing.T) {
	sys := mustParse(t, `
system counter
var x : real [0, 100]
init x <= 0
trans x' = x + 1
prop x <= 5
`)
	res := Check(sys, Spec{Engine: "portfolio", Budget: engine.Budget{Timeout: 30 * time.Second}})
	if res.Verdict != engine.Unsafe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if err := sys.ValidateTrace(res.Trace, 1e-2); err != nil {
		t.Errorf("trace: %v", err)
	}
}

func TestPortfolioOnlyIC3CanProve(t *testing.T) {
	// the frozen-lemma system: only IC3 proves it, so the portfolio must
	// return Safe decided by ic3-icp
	sys := mustParse(t, `
system frozen
var x : real [0, 100]
var y : real [0, 1]
init x >= 0 and x <= 1 and y = 0
trans x' = x + y and y' = y
prop x <= 5
`)
	res := Check(sys, Spec{Engine: "portfolio", Budget: engine.Budget{Timeout: 30 * time.Second}})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if !strings.Contains(res.Note, "ic3-icp") {
		t.Errorf("expected ic3-icp to decide, note = %q", res.Note)
	}
}

func TestPortfolioAllUnknown(t *testing.T) {
	// a hard instance under a tiny budget: every engine gives up
	sys := mustParse(t, `
system hard
var x : real [0, 1000000]
var y : real [0, 1000000]
init x >= 0 and x <= 1 and y >= 0 and y <= 1
trans x' = x + y * y / 1000 and y' = y + x * x / 1000
prop x + y <= 999999
`)
	res := Check(sys, Spec{Engine: "portfolio", Budget: engine.Budget{Timeout: 300 * time.Millisecond}})
	if res.Verdict != engine.Unknown {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if !strings.Contains(res.Note, "undecided") {
		t.Errorf("note = %q", res.Note)
	}
}

func TestPortfolioInvalidSystem(t *testing.T) {
	sys := ts.New("broken")
	sys.AddReal("x", 0, 1)
	res := Check(sys, Spec{Engine: "portfolio"})
	if res.Verdict != engine.Unknown || res.Note == "" {
		t.Fatalf("res = %+v", res)
	}
}
