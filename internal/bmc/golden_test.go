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
// exhausts its depth).  The rows were last regenerated for the
// exact-trace exit (exit.go), which changed only work counters and the
// traces of exits: every verdict and depth is that of the search without
// it.
var unrollGolden = map[string][2]string{
	"poly-safe-0":         {"safe d=1 baseSolves=4 conflicts=1 decisions=0 stepSolves=1", ""},
	"poly-safe-1":         {"safe d=1 baseSolves=4 conflicts=1 decisions=0 stepSolves=1", ""},
	"poly-unsafe-0":       {"unsafe d=8 baseSolves=17 conflicts=7 ctiExits=7 decisions=23 spurious=1 stepSolves=7 traceExits=1 trace=c39a1ed3f8fb421b", "unsafe d=8 boundaryOnly=1 conflicts=5 decisions=17 solves=17 traceExits=1 trace=c39a1ed3f8fb421b"},
	"poly-unsafe-1":       {"unsafe d=8 baseSolves=17 conflicts=4 ctiExits=7 decisions=6 stepSolves=7 traceExits=1 trace=d857514d57568b12", "unsafe d=8 conflicts=2 decisions=0 solves=17 traceExits=1 trace=d857514d57568b12"},
	"logistic-safe-0":     {"safe d=1 baseSolves=4 conflicts=1 decisions=0 stepSolves=1", ""},
	"logistic-safe-1":     {"safe d=1 baseSolves=4 conflicts=1 decisions=0 stepSolves=1", ""},
	"logistic-unsafe-0":   {"unsafe d=3 baseSolves=7 conflicts=0 ctiExits=2 decisions=0 stepSolves=2 traceExits=1 trace=77673f2f1f66a1f8", "unsafe d=3 conflicts=0 decisions=0 solves=7 traceExits=1 trace=77673f2f1f66a1f8"},
	"logistic-unsafe-1":   {"unsafe d=3 baseSolves=7 conflicts=1 ctiExits=2 decisions=13 spurious=1 stepSolves=2 traceExits=1 trace=ca504744f23c5bb3", "unsafe d=3 boundaryOnly=1 conflicts=1 decisions=13 solves=7 traceExits=1 trace=ca504744f23c5bb3"},
	"vehicle-safe-0":      {"safe d=1 baseSolves=4 conflicts=1 decisions=0 stepSolves=1", ""},
	"vehicle-safe-1":      {"safe d=1 baseSolves=4 conflicts=1 decisions=0 stepSolves=1", ""},
	"vehicle-unsafe-0":    {"unsafe d=7 baseSolves=15 conflicts=2 ctiExits=6 decisions=0 stepSolves=6 traceExits=1 trace=9743ac0529133275", "unsafe d=7 conflicts=2 decisions=0 solves=15 traceExits=1 trace=9743ac0529133275"},
	"vehicle-unsafe-1":    {"unsafe d=6 baseSolves=13 conflicts=0 ctiExits=5 decisions=0 stepSolves=5 traceExits=1 trace=fa1da6f469500d4d", "unsafe d=6 conflicts=0 decisions=0 solves=13 traceExits=1 trace=fa1da6f469500d4d"},
	"thermostat-safe-0":   {"safe d=1 baseSolves=4 conflicts=2 decisions=1 stepSolves=1", ""},
	"thermostat-safe-1":   {"safe d=1 baseSolves=4 conflicts=2 decisions=1 stepSolves=1", ""},
	"thermostat-unsafe-0": {"unsafe d=1 baseSolves=3 conflicts=0 decisions=19 trace=80112bfe3a738165", "unsafe d=1 conflicts=0 decisions=19 solves=3 trace=80112bfe3a738165"},
	"thermostat-unsafe-1": {"unsafe d=1 baseSolves=3 conflicts=0 decisions=19 trace=e8d827ea7d973a3f", "unsafe d=1 conflicts=0 decisions=19 solves=3 trace=e8d827ea7d973a3f"},
	"pendulum-safe-0":     {"safe d=9 baseSolves=20 conflicts=33 ctiExits=6 decisions=86 stepSolves=9", ""},
	"pendulum-safe-1":     {"safe d=8 baseSolves=18 conflicts=20 ctiExits=5 decisions=88 stepSolves=8", ""},
	"pendulum-unsafe-0":   {"unsafe d=1 baseSolves=3 conflicts=0 decisions=0 traceExits=1 trace=f50935ec7673672d", "unsafe d=1 conflicts=0 decisions=0 solves=3 traceExits=1 trace=f50935ec7673672d"},
	"pendulum-unsafe-1":   {"unsafe d=0 baseSolves=1 conflicts=0 decisions=0 traceExits=1 trace=71dde68f038279f6", "unsafe d=0 conflicts=0 decisions=0 solves=1 traceExits=1 trace=71dde68f038279f6"},
	"counternl-safe-0":    {"safe d=1 baseSolves=4 conflicts=0 decisions=0 stepSolves=1", ""},
	"counternl-safe-1":    {"safe d=1 baseSolves=4 conflicts=0 decisions=0 stepSolves=1", ""},
	"counternl-unsafe-0":  {"unsafe d=6 baseSolves=13 conflicts=0 decisions=10 stepSolves=5 trace=a5ed49d05a7de8df", "unsafe d=6 conflicts=0 decisions=0 solves=13 trace=a5ed49d05a7de8df"},
	"counternl-unsafe-1":  {"unsafe d=7 baseSolves=15 conflicts=0 decisions=15 stepSolves=6 trace=a192415f61adae45", "unsafe d=7 conflicts=0 decisions=0 solves=15 trace=a192415f61adae45"},
	"frozen-safe-0":       {"unknown d=16 baseSolves=34 conflicts=0 decisions=319 stepSolves=16", ""},
	"frozen-safe-1":       {"unknown d=16 baseSolves=34 conflicts=0 decisions=319 stepSolves=16", ""},
	"frozen-unsafe-0":     {"unsafe d=14 baseSolves=29 conflicts=8 decisions=274 stepSolves=13 trace=c45818e8f1d20794", "unsafe d=14 conflicts=8 decisions=19 solves=29 trace=c45818e8f1d20794"},
	"frozen-unsafe-1":     {"unknown d=16 baseSolves=34 conflicts=0 decisions=319 stepSolves=16", "unsafe d=17 conflicts=7 decisions=10 solves=35 traceExits=1 trace=02aff0be334a9d40"},
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
