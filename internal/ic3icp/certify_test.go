package ic3icp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/certify"
	"icpic3/internal/engine"
	"icpic3/internal/icp"
	"icpic3/internal/ts"
)

func TestCertifyDiscoveredInvariants(t *testing.T) {
	// every Safe verdict's invariant must pass independent certification
	srcs := []string{
		`
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`,
		`
system frozen
var x : real [0, 100]
var y : real [0, 1]
init x >= 0 and x <= 1 and y = 0
trans x' = x + y and y' = y
prop x <= 5
`,
		// (the vehicle attractor invariant also certifies, but its
		// boundary-tight cube makes the step check take ~1 min; it is
		// exercised by the examples instead)
		`
system logistic
var x : real [0, 1]
init x >= 0.1 and x <= 0.4
trans x' = 2.5 * x * (1 - x)
prop x <= 0.9
`,
	}
	for _, src := range srcs {
		sys := mustParse(t, src)
		res := Check(sys, Options{})
		if res.Verdict != engine.Safe {
			t.Fatalf("%s: verdict = %v (%s)", sys.Name, res.Verdict, res.Note)
		}
		if err := certify.BoxInvariant(sys, res.Certificate.Cubes, icp.Options{}); err != nil {
			t.Errorf("%s: certification failed: %v", sys.Name, err)
		}
	}
}

func TestCertifyRejectsBogusInvariant(t *testing.T) {
	sys := mustParse(t, `
system counter
var x : real [0, 100]
init x >= 0 and x <= 0
trans x' = x + 1
prop x <= 200
`)
	// claim "x > 5 is unreachable": false (x reaches 6)
	bogus := []engine.Cube{{{Var: "x", Le: false, B: 5, Strict: true}}}
	if err := certify.BoxInvariant(sys, bogus, icp.Options{}); err == nil {
		t.Error("bogus invariant certified")
	}
	// claim with a cube that intersects Init
	bogus2 := []engine.Cube{{{Var: "x", Le: true, B: 1}}}
	if err := certify.BoxInvariant(sys, bogus2, icp.Options{}); err == nil {
		t.Error("init-intersecting cube certified")
	}
	// unknown variable
	bogus3 := []engine.Cube{{{Var: "zzz", Le: true, B: 1}}}
	if err := certify.BoxInvariant(sys, bogus3, icp.Options{}); err == nil {
		t.Error("unknown-variable cube certified")
	}
}

func TestCertifyRejectsUnsafeProp(t *testing.T) {
	// a property violated from Init directly: obligation 1 must fail
	sys := mustParse(t, `
system bad
var x : real [0, 10]
init x >= 7
trans x' = x
prop x <= 5
`)
	if err := certify.BoxInvariant(sys, nil, icp.Options{}); err == nil {
		t.Error("Init ∧ ¬Prop should fail certification")
	}
}

func TestCertifyEmptyInvariant(t *testing.T) {
	// a 1-inductive property certifies with no cubes at all
	sys := mustParse(t, `
system ind
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`)
	if err := certify.BoxInvariant(sys, nil, icp.Options{}); err != nil {
		t.Errorf("1-inductive property failed: %v", err)
	}
}

// TestSeedingAgreesWithCertification: seeding and certification ask the
// same obligations through certify.Box.  On every Safe proof of the
// size-2 suite, seeding installs every cube of a certificate that
// certify.Check accepts and drops a cube of one it rejects.  A copy
// with its first cube replaced by a box holding Init points fails
// certification on that cube's Init obligation, and seeding drops that
// cube and otherwise keeps what it keeps of the certificate without it
// (removing a cube can strand others that leaned on it).
func TestSeedingAgreesWithCertification(t *testing.T) {
	suite, err := benchmarks.Suite(2)
	if err != nil {
		t.Fatal(err)
	}
	// seed runs only the seeding: MaxFrames 1 ends the run before the
	// first frame's search
	seed := func(sys *ts.System, cubes []engine.Cube) ([]icpCube, int64) {
		res, ch := checkWith(sys, Options{MaxFrames: 1, SeedClauses: cubes}, nil)
		var installed []icpCube
		for _, fc := range ch.frames[1] {
			installed = append(installed, fc.cube)
		}
		return installed, res.Stats["seedDropped"]
	}
	for _, in := range suite {
		if in.Expected != engine.Safe {
			continue
		}
		in := in
		t.Run(in.Name, func(t *testing.T) {
			if in.Hard && testing.Short() {
				t.Skip("pendulum proofs take seconds")
			}
			t.Parallel()
			// the budget cuts pendulum-safe-0, which takes far longer
			res := Check(in.Sys, Options{Budget: engine.Budget{Timeout: 8 * time.Second}})
			if res.Verdict != engine.Safe {
				t.Skipf("not proved within the budget: %v", res.Verdict)
			}
			cubes := res.Certificate.Cubes
			certErr := certify.Check(in.Sys, res, certify.Options{})
			if _, dropped := seed(in.Sys, cubes); (certErr == nil) != (dropped == 0) {
				t.Errorf("certify.Check = %v, but seeding dropped %d of %d cubes", certErr, dropped, len(cubes))
			}
			if len(cubes) == 0 {
				return
			}

			v := in.Sys.Vars[0]
			bad := append([]engine.Cube{{{Var: v.Name, B: v.Dom.Lo}}}, cubes[1:]...) // holds every state
			res.Certificate = &engine.Certificate{Kind: engine.CertBoxInvariant, Cubes: bad}
			want := fmt.Sprintf("Init ∧ (%s) is", bad[0])
			if err := certify.Check(in.Sys, res, certify.Options{}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("certify.Check = %v, want the %q obligation to fail", err, want)
			}
			installed, dropped := seed(in.Sys, bad)
			rest, restDropped := seed(in.Sys, cubes[1:])
			if dropped != restDropped+1 || !reflect.DeepEqual(installed, rest) {
				t.Errorf("seeding installed %v, dropping %d; without the cube it installs %v, dropping %d",
					installed, dropped, rest, restDropped)
			}
		})
	}
}
