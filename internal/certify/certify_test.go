package certify_test

import (
	"strings"
	"testing"

	"icpic3/internal/bmc"
	"icpic3/internal/certify"
	"icpic3/internal/engine"
	"icpic3/internal/ic3icp"
	"icpic3/internal/kind"
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

const safeSrc = `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2 + x^2 / 100
prop x <= 8
`

const unsafeSrc = `
system intdouble
var n : int [0, 100]
init n = 1
trans n' = 2 * n
prop n <= 30
`

func TestCheckSafeIC3Certificate(t *testing.T) {
	sys := mustParse(t, safeSrc)
	res := ic3icp.Check(sys, ic3icp.Options{})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if res.Certificate == nil {
		t.Fatal("Safe result carries no certificate")
	}
	if res.Certificate.Kind != engine.CertBoxInvariant {
		t.Fatalf("certificate kind = %q", res.Certificate.Kind)
	}
	if err := certify.Check(sys, res, certify.Options{}); err != nil {
		t.Errorf("valid certificate rejected: %v", err)
	}
}

func TestCheckRejectsCorruptedCertificate(t *testing.T) {
	sys := mustParse(t, safeSrc)
	res := ic3icp.Check(sys, ic3icp.Options{})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	// An empty cube blocks the whole state space, so Init ⊆ Inv must fail.
	res.Certificate.Cubes = append(res.Certificate.Cubes, engine.Cube{})
	if err := certify.Check(sys, res, certify.Options{}); err == nil {
		t.Error("corrupted certificate accepted")
	}
}

func TestCheckRejectsSafeWithoutCertificate(t *testing.T) {
	sys := mustParse(t, safeSrc)
	res := engine.Result{Verdict: engine.Safe}
	if err := certify.Check(sys, res, certify.Options{}); err == nil {
		t.Error("bare Safe verdict accepted without a certificate")
	}
}

func TestCheckUnsafeTraceReplay(t *testing.T) {
	sys := mustParse(t, unsafeSrc)
	res := bmc.Check(sys, bmc.Options{})
	if res.Verdict != engine.Unsafe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if err := certify.Check(sys, res, certify.Options{}); err != nil {
		t.Errorf("genuine counterexample rejected: %v", err)
	}
	// Corrupt the trace: the replay must now fail.
	bad := res
	bad.Trace = append([]ts.State{}, res.Trace...)
	last := ts.State{}
	for k, v := range bad.Trace[len(bad.Trace)-1] {
		last[k] = v + 17
	}
	bad.Trace[len(bad.Trace)-1] = last
	if err := certify.Check(sys, bad, certify.Options{}); err == nil {
		t.Error("corrupted trace accepted")
	}
	empty := res
	empty.Trace = nil
	if err := certify.Check(sys, empty, certify.Options{}); err == nil {
		t.Error("Unsafe without trace accepted")
	}
}

func TestCheckKInductionCertificate(t *testing.T) {
	sys := mustParse(t, safeSrc)
	res := kind.Check(sys, kind.Options{})
	if res.Verdict != engine.Safe {
		t.Skipf("property not k-inductive here: %v (%s)", res.Verdict, res.Note)
	}
	if res.Certificate == nil || res.Certificate.Kind != engine.CertKInduction {
		t.Fatalf("certificate = %+v", res.Certificate)
	}
	if err := certify.Check(sys, res, certify.Options{}); err != nil {
		t.Errorf("k-induction certificate rejected: %v", err)
	}
	// Claiming a smaller K than the real induction depth must fail
	// whenever the property is not 0-inductive... but depth-0 certs are
	// legitimate for some systems, so only check when K > 0.
	if res.Certificate.K > 0 {
		shallow := res
		shallow.Certificate = &engine.Certificate{Kind: engine.CertKInduction, K: 0}
		if err := certify.Check(sys, shallow, certify.Options{}); err == nil {
			t.Error("under-claimed induction depth accepted")
		}
	}
}

// twoInductiveSrc is safe and 2-inductive but not 1-inductive: a = 2
// satisfies the property and steps to the violation a = 3, but no state
// steps to a = 2.
const twoInductiveSrc = `
system twostep
var a : int [0, 3]
init a = 0
trans a' = ite(a = 0, 1, ite(a = 1, 0, 3))
prop a <= 2
`

func TestCheckRejectsShallowKInduction(t *testing.T) {
	sys := mustParse(t, twoInductiveSrc)
	res := kind.Check(sys, kind.Options{})
	if res.Verdict != engine.Safe || res.Certificate == nil || res.Certificate.K != 2 {
		t.Fatalf("kind: %v at depth %d (%s), certificate %+v", res.Verdict, res.Depth, res.Note, res.Certificate)
	}
	if err := certify.Check(sys, res, certify.Options{}); err != nil {
		t.Errorf("2-induction certificate rejected: %v", err)
	}
	shallow := res
	shallow.Certificate = &engine.Certificate{Kind: engine.CertKInduction, K: 1}
	if err := certify.Check(sys, shallow, certify.Options{}); err == nil {
		t.Error("1-induction claim accepted for a property that is only 2-inductive")
	}
}

// TestCheckRejectsKInductionOnUnsafe attaches a k-induction certificate to
// an unsafe system whose property is 6-inductive from arbitrary states:
// the step case at K holds, so only the base cases, which the re-check
// runs at every depth up to K, can reject it.
func TestCheckRejectsKInductionOnUnsafe(t *testing.T) {
	sys := mustParse(t, unsafeSrc)
	forged := engine.Result{
		Verdict:     engine.Safe,
		Certificate: &engine.Certificate{Kind: engine.CertKInduction, K: 6},
	}
	err := certify.Check(sys, forged, certify.Options{})
	if err == nil || !strings.Contains(err.Error(), "re-check: unsafe") {
		t.Errorf("k-induction certificate on an unsafe system: err = %v", err)
	}
}

func TestCheckUnknownPassesVacuously(t *testing.T) {
	sys := mustParse(t, safeSrc)
	if err := certify.Check(sys, engine.Result{Verdict: engine.Unknown}, certify.Options{}); err != nil {
		t.Errorf("Unknown should certify vacuously: %v", err)
	}
}

func TestCheckUnknownCertificateKind(t *testing.T) {
	sys := mustParse(t, safeSrc)
	res := engine.Result{
		Verdict:     engine.Safe,
		Certificate: &engine.Certificate{Kind: "made-up"},
	}
	err := certify.Check(sys, res, certify.Options{})
	if err == nil || !strings.Contains(err.Error(), "made-up") {
		t.Errorf("unknown certificate kind: err = %v", err)
	}
}
