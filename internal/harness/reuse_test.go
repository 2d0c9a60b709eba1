package harness

import (
	"strings"
	"testing"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/engine"
	"icpic3/internal/ic3icp"
	"icpic3/internal/ts"
)

// TestReuseSeededVerdictIdentity is the reuse differential over the
// corpus: for every instance, a run seeded from a prior certificate —
// of the same system and of a perturbed resubmission — must return the
// same verdict as a cold run.  Seeding may only move wall-clock.
func TestReuseSeededVerdictIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is slow")
	}
	suite, err := benchmarks.Suite(2)
	if err != nil {
		t.Fatal(err)
	}
	budget := func() engine.Budget { return engine.Budget{Timeout: 5 * time.Second} }
	for _, in := range suite {
		if in.Hard {
			continue
		}
		in := in
		t.Run(in.Name, func(t *testing.T) {
			t.Parallel()
			cold := ic3icp.Check(in.Sys, ic3icp.Options{Budget: budget()})
			if cold.Verdict != engine.Safe || cold.Certificate == nil {
				return // no prior proof to reuse
			}
			seeds := cold.Certificate.Cubes

			// same system, seeded with its own proof
			seeded := ic3icp.Check(in.Sys, ic3icp.Options{SeedClauses: seeds, Budget: budget()})
			if seeded.Verdict != cold.Verdict {
				t.Errorf("self-seeded: %v != cold %v (%s)", seeded.Verdict, cold.Verdict, seeded.Note)
			}

			// resubmission with a tightened bound, seeded with the stale proof
			mutated, err := MutateBound(in.Sys, 0.98)
			if err != nil {
				return
			}
			coldM := ic3icp.Check(mutated, ic3icp.Options{Budget: budget()})
			seededM := ic3icp.Check(mutated, ic3icp.Options{SeedClauses: seeds, Budget: budget()})
			if !verdictsCompatible(coldM.Verdict, seededM.Verdict) {
				t.Errorf("resubmission: seeded %v vs cold %v (%s)",
					seededM.Verdict, coldM.Verdict, seededM.Note)
			}
		})
	}
}

// verdictsCompatible accepts equal verdicts, or one side Unknown (a
// budget artifact, not a contradiction); Safe vs Unsafe is the bug.
func verdictsCompatible(a, b engine.Verdict) bool {
	return a == b || a == engine.Unknown || b == engine.Unknown
}

// TestReuseCorruptedCertificate routes a certificate through the
// engine-level fault injector (FaultBadCert, the corruption the service
// certifier guards against) and adds hand-corrupted clauses: the seeded
// run must drop every corrupt clause and match the cold verdict.
func TestReuseCorruptedCertificate(t *testing.T) {
	src := `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`
	sys, err := ts.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cold := ic3icp.Check(sys, ic3icp.Options{})
	if cold.Verdict != engine.Safe || cold.Certificate == nil {
		t.Fatalf("cold = %v", cold.Verdict)
	}

	// corrupt the certificate exactly as the injector does for the
	// service certifier, then add stale clauses a mutated system rejects
	disarm := engine.InjectFault(sys.Name, engine.FaultBadCert)
	engine.CorruptResult(sys.Name, &cold)
	disarm()
	seeds := cold.Certificate.Cubes
	nCorrupt := 1 // the injected whole-state-space cube
	seeds = append(seeds,
		engine.Cube{{Var: "gone", Le: true, B: 1}}, // variable that no longer exists
		engine.Cube{{Var: "x", Le: true, B: 9}},    // swallows Init
	)
	nCorrupt += 2

	seeded := ic3icp.Check(sys, ic3icp.Options{SeedClauses: seeds})
	if seeded.Verdict != cold.Verdict {
		t.Errorf("seeded %v != cold %v (%s)", seeded.Verdict, cold.Verdict, seeded.Note)
	}
	if got := seeded.Stats["seedDropped"]; got < int64(nCorrupt) {
		t.Errorf("seedDropped = %d, want >= %d (every corrupt clause)", got, nCorrupt)
	}
	if inst := seeded.Stats["seedInstalled"]; inst != int64(len(seeds))-seeded.Stats["seedDropped"] {
		t.Errorf("seed accounting: %d installed of %d with %d dropped",
			inst, len(seeds), seeded.Stats["seedDropped"])
	}

	// a fully corrupted certificate (no genuine clause at all) must also
	// drop everything and keep the verdict
	allBad := []engine.Cube{
		{{Var: "gone", Le: true, B: 1}},
		{{Var: "x", Le: true, B: 9}},
		{},
	}
	res := ic3icp.Check(sys, ic3icp.Options{SeedClauses: allBad})
	if res.Verdict != cold.Verdict {
		t.Errorf("all-corrupt seeded %v != cold %v", res.Verdict, cold.Verdict)
	}
	if res.Stats["seedInstalled"] != 0 {
		t.Errorf("all-corrupt certificate installed clauses: %v", res.Stats)
	}
}

// TestMutateBound checks the workload mutation is a real, small, prop-
// only edit.
func TestMutateBound(t *testing.T) {
	sys, err := ts.Parse(`
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MutateBound(sys, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	if m.Hash() == sys.Hash() {
		t.Error("mutation did not change the canonical hash")
	}
	if sys.Prop.String() == m.Prop.String() {
		t.Error("prop unchanged")
	}
	if sys.Init.String() != m.Init.String() || sys.Trans.String() != m.Trans.String() {
		t.Error("mutation leaked outside prop")
	}
	if !strings.Contains(m.Prop.String(), "7.84") {
		t.Errorf("prop = %s, want bound 7.84", m.Prop.String())
	}
}

// TestReuseBenchSmall runs the full resubmission workload on a small
// corpus: no verdict mismatches, and every lookup of a proved system's
// variant must hit.
func TestReuseBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("workload is slow")
	}
	suite := []benchmarks.Instance{
		benchmarks.Must(benchmarks.Poly(true, 0)),
		benchmarks.Must(benchmarks.Logistic(true, 1)),
		benchmarks.Must(benchmarks.Vehicle(true, 2)),
	}
	rep, err := ReuseBench(suite, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("verdict mismatches: %+v", rep.Points)
	}
	if rep.Proved == 0 || rep.Lookups == 0 {
		t.Fatalf("workload did not run: %+v", rep)
	}
	if rep.Hits < rep.Proved {
		t.Errorf("hits = %d, want >= proofs stored (%d)", rep.Hits, rep.Proved)
	}
	var b strings.Builder
	WriteReuseReport(&b, rep)
	for _, want := range []string{"hit rate", "speedup", "Certificate reuse"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("report missing %q:\n%s", want, b.String())
		}
	}
}
