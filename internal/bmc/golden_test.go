package bmc_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/bmc"
	"icpic3/internal/engine"
	"icpic3/internal/kind"
	"icpic3/internal/ts"
)

// unrollProfile renders the deterministic fingerprint of one bmc or kind
// run: the verdict, the depth, every Result.Stats counter in key order
// and a digest of the trace's exact float bits.
func unrollProfile(sys *ts.System, r engine.Result) string {
	keys := make([]string, 0, len(r.Stats))
	for k := range r.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%v d=%d", r.Verdict, r.Depth)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, r.Stats[k])
	}
	if len(r.Trace) > 0 {
		h := sha256.New()
		var buf [8]byte
		for _, st := range r.Trace {
			for _, v := range sys.Vars {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(st[v.Name]))
				h.Write(buf[:])
			}
		}
		fmt.Fprintf(&b, " trace=%s", hex.EncodeToString(h.Sum(nil))[:16])
	}
	return b.String()
}

// unrollGolden holds, per size-2 suite instance, the profile of kind
// (every instance) and of bmc (the unsafe ones; on a safe one bmc only
// exhausts its depth).  The rows were generated before bmc and kind
// shared one unrolling, so they pin that the sharing left the search
// alone: variable ids, solver work, verdicts and traces.
var unrollGolden = map[string][2]string{
	"poly-safe-0":         {"safe d=1 baseSolves=4 conflicts=1 decisions=0 stepSolves=1", ""},
	"poly-safe-1":         {"safe d=1 baseSolves=4 conflicts=1 decisions=0 stepSolves=1", ""},
	"poly-unsafe-0":       {"unsafe d=8 baseSolves=17 conflicts=27 decisions=172 spurious=1 stepSolves=7 trace=708e4767b850edcc", "unsafe d=8 boundaryOnly=1 conflicts=9 decisions=41 solves=17 trace=708e4767b850edcc"},
	"poly-unsafe-1":       {"unsafe d=8 baseSolves=17 conflicts=33 decisions=182 stepSolves=7 trace=b37c63b1c04d5004", "unsafe d=8 conflicts=10 decisions=36 solves=17 trace=b37c63b1c04d5004"},
	"logistic-safe-0":     {"safe d=1 baseSolves=4 conflicts=1 decisions=0 stepSolves=1", ""},
	"logistic-safe-1":     {"safe d=1 baseSolves=4 conflicts=1 decisions=0 stepSolves=1", ""},
	"logistic-unsafe-0":   {"unsafe d=3 baseSolves=7 conflicts=0 decisions=58 stepSolves=2 trace=45d1a77ebe9f542a", "unsafe d=3 conflicts=0 decisions=14 solves=7 trace=45d1a77ebe9f542a"},
	"logistic-unsafe-1":   {"unsafe d=3 baseSolves=7 conflicts=8 decisions=73 spurious=1 stepSolves=2 trace=6f2c4214ca52ca55", "unsafe d=3 boundaryOnly=1 conflicts=8 decisions=35 solves=7 trace=6f2c4214ca52ca55"},
	"vehicle-safe-0":      {"safe d=1 baseSolves=4 conflicts=1 decisions=0 stepSolves=1", ""},
	"vehicle-safe-1":      {"safe d=1 baseSolves=4 conflicts=1 decisions=0 stepSolves=1", ""},
	"vehicle-unsafe-0":    {"unsafe d=7 baseSolves=15 conflicts=12 decisions=248 stepSolves=6 trace=e0b0c27e0487f645", "unsafe d=7 conflicts=6 decisions=48 solves=15 trace=e0b0c27e0487f645"},
	"vehicle-unsafe-1":    {"unsafe d=6 baseSolves=13 conflicts=5 decisions=196 stepSolves=5 trace=140699c348e81fae", "unsafe d=6 conflicts=5 decisions=55 solves=13 trace=140699c348e81fae"},
	"thermostat-safe-0":   {"safe d=1 baseSolves=4 conflicts=2 decisions=1 stepSolves=1", ""},
	"thermostat-safe-1":   {"safe d=1 baseSolves=4 conflicts=2 decisions=1 stepSolves=1", ""},
	"thermostat-unsafe-0": {"unsafe d=1 baseSolves=3 conflicts=0 decisions=19 trace=80112bfe3a738165", "unsafe d=1 conflicts=0 decisions=19 solves=3 trace=80112bfe3a738165"},
	"thermostat-unsafe-1": {"unsafe d=1 baseSolves=3 conflicts=0 decisions=19 trace=e8d827ea7d973a3f", "unsafe d=1 conflicts=0 decisions=19 solves=3 trace=e8d827ea7d973a3f"},
	"pendulum-safe-0":     {"safe d=9 baseSolves=20 conflicts=60 decisions=282 stepSolves=9", ""},
	"pendulum-safe-1":     {"safe d=8 baseSolves=18 conflicts=31 decisions=221 stepSolves=8", ""},
	"pendulum-unsafe-0":   {"unsafe d=1 baseSolves=3 conflicts=0 decisions=29 trace=850aff4de7e1bfc3", "unsafe d=1 conflicts=0 decisions=29 solves=3 trace=850aff4de7e1bfc3"},
	"pendulum-unsafe-1":   {"unsafe d=0 baseSolves=1 conflicts=0 decisions=26 trace=cc2d8436514c5b6e", "unsafe d=0 conflicts=0 decisions=26 solves=1 trace=cc2d8436514c5b6e"},
	"counternl-safe-0":    {"safe d=1 baseSolves=4 conflicts=0 decisions=0 stepSolves=1", ""},
	"counternl-safe-1":    {"safe d=1 baseSolves=4 conflicts=0 decisions=0 stepSolves=1", ""},
	"counternl-unsafe-0":  {"unsafe d=6 baseSolves=13 conflicts=0 decisions=10 stepSolves=5 trace=a5ed49d05a7de8df", "unsafe d=6 conflicts=0 decisions=0 solves=13 trace=a5ed49d05a7de8df"},
	"counternl-unsafe-1":  {"unsafe d=7 baseSolves=15 conflicts=0 decisions=15 stepSolves=6 trace=a192415f61adae45", "unsafe d=7 conflicts=0 decisions=0 solves=15 trace=a192415f61adae45"},
	"frozen-safe-0":       {"unknown d=16 baseSolves=34 conflicts=0 decisions=319 stepSolves=16", ""},
	"frozen-safe-1":       {"unknown d=16 baseSolves=34 conflicts=0 decisions=319 stepSolves=16", ""},
	"frozen-unsafe-0":     {"unsafe d=14 baseSolves=29 conflicts=8 decisions=274 stepSolves=13 trace=c45818e8f1d20794", "unsafe d=14 conflicts=8 decisions=19 solves=29 trace=c45818e8f1d20794"},
	"frozen-unsafe-1":     {"unknown d=16 baseSolves=34 conflicts=0 decisions=319 stepSolves=16", "unsafe d=17 conflicts=7 decisions=18 solves=35 trace=288f18090c29a038"},
}

// TestUnrollGolden runs bmc and kind on the size-2 suite and compares
// each run with its golden row.  A change that alters the unrolling's
// encoding or search on purpose regenerates the table (the failing test
// prints every new row) and says why.
func TestUnrollGolden(t *testing.T) {
	suite, err := benchmarks.Suite(2)
	if err != nil {
		t.Fatal(err)
	}
	// the budget only guards against a hang; a run cut by it changes
	// its row and fails
	budget := engine.Budget{Timeout: time.Minute}
	var rows []string
	for _, in := range suite {
		got := [2]string{unrollProfile(in.Sys, kind.Check(in.Sys, kind.Options{Budget: budget}))}
		if in.Expected == engine.Unsafe {
			got[1] = unrollProfile(in.Sys, bmc.Check(in.Sys, bmc.Options{Budget: budget}))
		}
		if want := unrollGolden[in.Name]; got != want {
			t.Errorf("%s:\n got %q\nwant %q", in.Name, got, want)
		}
		rows = append(rows, fmt.Sprintf("\t%q: {%q, %q},", in.Name, got[0], got[1]))
	}
	if t.Failed() {
		t.Logf("regenerated table:\n%s", strings.Join(rows, "\n"))
	}
}
