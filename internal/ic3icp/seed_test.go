package ic3icp

import (
	"encoding/json"
	"testing"

	"icpic3/internal/certify"
	"icpic3/internal/engine"
	"icpic3/internal/icp"
	"icpic3/internal/ts"
)

const decaySeedSrc = `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`

// TestSeedOwnProof replays a proof onto the very system that produced
// it: every clause must survive the re-check and the verdict must stay
// Safe.
func TestSeedOwnProof(t *testing.T) {
	sys := mustParse(t, decaySeedSrc)
	cold := Check(sys, Options{})
	if cold.Verdict != engine.Safe {
		t.Fatalf("cold verdict = %v (%s)", cold.Verdict, cold.Note)
	}
	inv := cold.Certificate.Cubes
	if len(inv) == 0 {
		t.Fatal("no invariant to seed from")
	}
	seeded := Check(sys, Options{SeedClauses: inv})
	if seeded.Verdict != engine.Safe {
		t.Fatalf("seeded verdict = %v (%s)", seeded.Verdict, seeded.Note)
	}
	if seeded.Stats["seedInstalled"] == 0 {
		t.Errorf("own proof installed no clauses: stats = %v", seeded.Stats)
	}
	if got, want := seeded.Stats["seedCandidates"], int64(len(inv)); got != want {
		t.Errorf("seedCandidates = %d, want %d", got, want)
	}
	if err := certify.BoxInvariant(sys, seeded.Certificate.Cubes, icp.Options{}); err != nil {
		t.Errorf("seeded invariant fails certification: %v", err)
	}
}

// TestSeedAfterEdit seeds a mutated resubmission (tightened property)
// with the original proof: the seeded verdict must match the cold one
// and the resulting invariant must still hold on simulated runs.
func TestSeedAfterEdit(t *testing.T) {
	inv := Check(mustParse(t, decaySeedSrc), Options{}).Certificate.Cubes
	if len(inv) == 0 {
		t.Fatal("no invariant to seed from")
	}
	edited := mustParse(t, `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 7.5
`)
	cold := Check(edited, Options{})
	seeded := Check(edited, Options{SeedClauses: inv})
	if seeded.Verdict != cold.Verdict {
		t.Fatalf("seeded %v != cold %v (%s)", seeded.Verdict, cold.Verdict, seeded.Note)
	}
	if seeded.Verdict != engine.Safe {
		t.Fatalf("edited decay should stay safe: %v (%s)", seeded.Verdict, seeded.Note)
	}
	tr := simulate(ts.State{"x": 6}, 10, func(s ts.State) ts.State { return ts.State{"x": s["x"] / 2} })
	checkInvariantOnSamples(t, edited, seeded, [][]ts.State{tr})
}

// TestSeedCorruptedDropsAll feeds a corrupted certificate — unknown
// variables, empty cubes, init-overlapping and non-inductive bounds —
// and requires every clause to be dropped with the verdict unchanged.
func TestSeedCorruptedDropsAll(t *testing.T) {
	sys := mustParse(t, `
system ramp
var x : real [0, 100]
init x >= 0 and x <= 0
trans x' = x + 1
prop x <= 200
`)
	seeds := []engine.Cube{
		{{Var: "ghost", Le: true, B: 1}}, // unknown variable
		{},                               // empty cube
		{{Var: "x", Le: true, B: 100}},   // covers Init
		{{Var: "x", Le: false, B: 50}},   // init-disjoint but not inductive
	}
	cold := Check(sys, Options{})
	seeded := Check(sys, Options{SeedClauses: seeds})
	if seeded.Verdict != cold.Verdict {
		t.Fatalf("seeded %v != cold %v", seeded.Verdict, cold.Verdict)
	}
	if seeded.Stats["seedInstalled"] != 0 {
		t.Errorf("corrupted seeds installed: stats = %v", seeded.Stats)
	}
	if got := seeded.Stats["seedDropped"]; got != int64(len(seeds)) {
		t.Errorf("seedDropped = %d, want %d", got, len(seeds))
	}
}

// TestSeedFixpointStranding checks the greatest-fixpoint loop: a clause
// that is inductive only relative to another must fall once its support
// is dropped, even though it passes the first sweep.
func TestSeedFixpointStranding(t *testing.T) {
	sys := mustParse(t, `
system ramp
var x : real [0, 100]
init x >= 0 and x <= 0
trans x' = x + 1
prop x <= 200
`)
	seeds := []engine.Cube{
		{{Var: "x", Le: false, B: 60}}, // inductive only while x >= 50 is blocked
		{{Var: "x", Le: false, B: 50}}, // not inductive at all
	}
	res := Check(sys, Options{SeedClauses: seeds})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	if res.Stats["seedInstalled"] != 0 {
		t.Errorf("stranded clause survived: stats = %v", res.Stats)
	}
	// second consecution sweep must have re-queried the stranded clause
	if res.Stats["seedQueries"] < 4 {
		t.Errorf("seedQueries = %d, want >= 4 (fixpoint re-sweep)", res.Stats["seedQueries"])
	}
}

// TestSeedUnsafeUnchanged: an inductive seed clause can never mask a
// real counterexample — Unsafe systems stay Unsafe with a valid trace.
func TestSeedUnsafeUnchanged(t *testing.T) {
	sys := mustParse(t, `
system counter
var x : real [0, 100]
init x >= 0 and x <= 0
trans x' = x + 1
prop x <= 5
`)
	// x >= 50 is init-disjoint and inductive relative to prop (x <= 5
	// steps to x' <= 6 < 50), so it installs — and must change nothing.
	seeded := Check(sys, Options{SeedClauses: []engine.Cube{{{Var: "x", Le: false, B: 50}}}})
	if seeded.Verdict != engine.Unsafe {
		t.Fatalf("verdict = %v (%s)", seeded.Verdict, seeded.Note)
	}
	if len(seeded.Trace) != 7 {
		t.Errorf("trace length = %d, want 7", len(seeded.Trace))
	}
	if err := sys.ValidateTrace(seeded.Trace, 1e-2); err != nil {
		t.Errorf("trace: %v", err)
	}
	if seeded.Stats["seedInstalled"] != 1 {
		t.Errorf("stats = %v, want the inductive seed installed", seeded.Stats)
	}
}

// TestSeedCertificateRoundtrip exercises the path the service uses: a
// stored certificate's JSON, read back, seeds the run.
func TestSeedCertificateRoundtrip(t *testing.T) {
	sys := mustParse(t, decaySeedSrc)
	cold := Check(sys, Options{})
	if cold.Verdict != engine.Safe || cold.Certificate == nil {
		t.Fatalf("cold = %v cert=%v", cold.Verdict, cold.Certificate)
	}
	data, err := json.Marshal(cold.Certificate)
	if err != nil {
		t.Fatal(err)
	}
	var stored engine.Certificate
	if err := json.Unmarshal(data, &stored); err != nil {
		t.Fatal(err)
	}
	seeded := Check(sys, Options{SeedClauses: stored.Cubes})
	if seeded.Verdict != engine.Safe {
		t.Fatalf("seeded verdict = %v (%s)", seeded.Verdict, seeded.Note)
	}
	if seeded.Stats["seedInstalled"] == 0 {
		t.Errorf("roundtripped certificate installed nothing: %v", seeded.Stats)
	}
}
