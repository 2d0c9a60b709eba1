package icpic3_test

import (
	"testing"
	"time"

	"icpic3"
)

func TestFacadeSafe(t *testing.T) {
	sys, err := icpic3.ParseSystem(`
system facade
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`)
	if err != nil {
		t.Fatal(err)
	}
	budget := icpic3.Budget{Timeout: 30 * time.Second}

	res := icpic3.CheckIC3(sys, icpic3.IC3Options{Budget: budget})
	if res.Verdict != icpic3.Safe {
		t.Fatalf("ic3: %v (%s)", res.Verdict, res.Note)
	}
	if len(res.Certificate.Cubes) == 0 {
		t.Error("no invariant reported")
	}
	if r := icpic3.CheckKInduction(sys, icpic3.KInductionOptions{Budget: budget}); r.Verdict != icpic3.Safe {
		t.Errorf("kind: %v", r.Verdict)
	}
	if r := icpic3.CheckBMC(sys, icpic3.BMCOptions{MaxDepth: 10, Budget: budget}); r.Verdict != icpic3.Unknown {
		t.Errorf("bmc on safe system: %v", r.Verdict)
	}
}

func TestFacadeUnsafe(t *testing.T) {
	sys, err := icpic3.ParseSystem(`
system facadebad
var x : real [0, 100]
init x >= 1 and x <= 1
trans x' = 2 * x
prop x <= 30
`)
	if err != nil {
		t.Fatal(err)
	}
	budget := icpic3.Budget{Timeout: 30 * time.Second}
	res := icpic3.CheckIC3(sys, icpic3.IC3Options{Budget: budget})
	if res.Verdict != icpic3.Unsafe {
		t.Fatalf("ic3: %v (%s)", res.Verdict, res.Note)
	}
	if err := sys.ValidateTrace(res.Trace, 1e-2); err != nil {
		t.Errorf("trace: %v", err)
	}
}

func TestFacadeBuilderAPI(t *testing.T) {
	sys := icpic3.NewSystem("built")
	if err := sys.AddReal("x", 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := sys.ParseInit("x <= 1"); err != nil {
		t.Fatal(err)
	}
	if err := sys.ParseTrans("x' = x"); err != nil {
		t.Fatal(err)
	}
	if err := sys.ParseProp("x <= 5"); err != nil {
		t.Fatal(err)
	}
	res := icpic3.CheckIC3(sys, icpic3.IC3Options{})
	if res.Verdict != icpic3.Safe {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestFacadeCircuit(t *testing.T) {
	c := icpic3.NewCircuit()
	a := c.AddLatch(false)
	b := c.AddLatch(false)
	c.SetNext(a, a.Not())     // a toggles
	c.SetNext(b, c.And(a, b)) // b stays low
	c.SetBad(b)
	res := icpic3.CheckCircuit(c, icpic3.CircuitOptions{})
	if res.Verdict != icpic3.CircuitSafe {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	bres := icpic3.CheckCircuitBMC(c, 16)
	if bres.Verdict != icpic3.CircuitUnknown {
		t.Fatalf("bmc verdict = %v", bres.Verdict)
	}
	if icpic3.CircuitTrue != icpic3.CircuitFalse.Not() {
		t.Error("circuit constants")
	}
}

func TestFacadeGenModes(t *testing.T) {
	if icpic3.GenNone.String() != "none" || icpic3.GenCoreWiden.String() != "core+widen" {
		t.Error("gen mode aliases")
	}
	_ = icpic3.GenCore
}
