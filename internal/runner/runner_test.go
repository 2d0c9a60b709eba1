package runner

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"icpic3/internal/bmc"
	"icpic3/internal/certify"
	"icpic3/internal/engine"
	"icpic3/internal/ic3icp"
	"icpic3/internal/icp"
	"icpic3/internal/kind"
)

const decaySrc = `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`

func TestParseGen(t *testing.T) {
	for _, tc := range []struct {
		in, want string
	}{
		{"", "core+widen"},
		{"none", "none"},
		{"core", "core"},
		{"core+widen", "core+widen"},
		{"widen", "core+widen"},
	} {
		g, err := ParseGen(tc.in)
		if err != nil || g.String() != tc.want {
			t.Errorf("ParseGen(%q) = %v, %v; want %s", tc.in, g, err, tc.want)
		}
	}
	if _, err := ParseGen("core+shrink"); err == nil || !strings.Contains(err.Error(), "core+shrink") {
		t.Errorf("unknown mode: err = %v", err)
	}
}

func TestLookup(t *testing.T) {
	for _, e := range table {
		for _, name := range []string{e.Name, e.Label} {
			got, err := Lookup(name)
			if err != nil || got.Name != e.Name {
				t.Errorf("Lookup(%q) = %q, %v", name, got.Name, err)
			}
		}
	}
	_, err := Lookup("sat")
	if err == nil || !strings.Contains(err.Error(), strings.Join(Names(), " | ")) {
		t.Errorf("Lookup(sat) err = %v", err)
	}
	res := Check(mustParse(t, decaySrc), Spec{Engine: "sat"})
	if res.Verdict != engine.Unknown || !strings.Contains(res.Note, "unknown engine") {
		t.Errorf("Check(sat) = %v (%s)", res.Verdict, res.Note)
	}
	res = Check(mustParse(t, decaySrc), Spec{Engine: "ic3", Generalize: "bogus"})
	if res.Verdict != engine.Unknown || !strings.Contains(res.Note, "generalization") {
		t.Errorf("Check(gen bogus) = %v (%s)", res.Verdict, res.Note)
	}
}

// TestCheckMatchesEngineCall pins the option mapping: each member row
// runs exactly the search a direct engine call with the same options
// runs, work counters included.
func TestCheckMatchesEngineCall(t *testing.T) {
	sys := mustParse(t, `
system counter
var x : real [0, 100]
init x <= 0
trans x' = x + 1
prop x <= 5
`)
	b := engine.Budget{Timeout: 30 * time.Second}
	solver := icp.Options{Eps: 1e-4}
	for _, tc := range []struct {
		spec Spec
		want engine.Result
	}{
		{Spec{Engine: "ic3", Eps: 1e-4, Generalize: "core", Budget: b},
			ic3icp.Check(sys, ic3icp.Options{Solver: solver, Generalize: ic3icp.GenCore, Budget: b})},
		{Spec{Engine: "ic3-icp", Budget: b}, ic3icp.Check(sys, ic3icp.Options{Budget: b})},
		{Spec{Engine: "bmc", Eps: 1e-4, MaxDepth: 8, Budget: b},
			bmc.Check(sys, bmc.Options{MaxDepth: 8, Solver: solver, Budget: b})},
		{Spec{Engine: "kind", MaxK: 4, Budget: b}, kind.Check(sys, kind.Options{MaxK: 4, Budget: b})},
	} {
		got := Check(sys, tc.spec)
		if got.Verdict != tc.want.Verdict || got.Depth != tc.want.Depth || !reflect.DeepEqual(got.Stats, tc.want.Stats) {
			t.Errorf("%+v: got %v depth %d %v, want %v depth %d %v", tc.spec,
				got.Verdict, got.Depth, got.Stats, tc.want.Verdict, tc.want.Depth, tc.want.Stats)
		}
	}
}

func TestCertify(t *testing.T) {
	sys := mustParse(t, decaySrc)
	opts := certify.Options{Budget: engine.Budget{Timeout: 30 * time.Second}}
	res := Check(sys, Spec{Engine: "ic3", Budget: opts.Budget})
	if res.Verdict != engine.Safe {
		t.Fatalf("verdict = %v (%s)", res.Verdict, res.Note)
	}
	good := res
	if err := Certify(sys, &good, opts, nil); err != nil || good.Verdict != engine.Safe {
		t.Fatalf("Certify = %v, verdict %v", err, good.Verdict)
	}

	disarm := engine.InjectFault(sys.Name, engine.FaultBadCert)
	defer disarm()
	bad := res
	if err := Certify(sys, &bad, opts, nil); err == nil {
		t.Fatal("corrupted certificate passed")
	}
	if bad.Verdict != engine.Unknown || bad.Certificate != nil ||
		!strings.HasPrefix(bad.Note, "CERTIFICATION FAILED: safe verdict withdrawn: ") {
		t.Errorf("demoted = %v cert %v note %q", bad.Verdict, bad.Certificate, bad.Note)
	}
	if bad.Depth != res.Depth || !reflect.DeepEqual(bad.Stats, res.Stats) {
		t.Errorf("demotion lost depth/stats: %d %v", bad.Depth, bad.Stats)
	}

	unknown := engine.Result{Verdict: engine.Unknown, Note: "budget"}
	if err := Certify(sys, &unknown, opts, nil); err != nil || unknown.Note != "budget" {
		t.Errorf("Unknown: err %v, note %q", err, unknown.Note)
	}
}
