package ic3icp

import (
	"testing"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/certify"
	"icpic3/internal/engine"
)

// unsafeDepths pins IC3's counterexample depth on the unsafe instances
// of benchmarks.Suite(2).  The depths are those of the Simulator-guided
// trace repair that candidateCex replaced; the traces themselves may
// differ.
var unsafeDepths = map[string]int{
	"poly-unsafe-0":       8,
	"poly-unsafe-1":       8,
	"logistic-unsafe-0":   4,
	"logistic-unsafe-1":   3,
	"vehicle-unsafe-0":    7,
	"vehicle-unsafe-1":    6,
	"thermostat-unsafe-0": 1,
	"thermostat-unsafe-1": 1,
	"pendulum-unsafe-0":   1,
	"pendulum-unsafe-1":   0,
	"counternl-unsafe-0":  6,
	"counternl-unsafe-1":  7,
	"frozen-unsafe-0":     17,
	"frozen-unsafe-1":     21,
}

// TestUnsafeGolden checks IC3's counterexample path on the unsafe suite
// instances: each run ends Unsafe at its pinned depth with a trace that
// certify.Check accepts.  The thermostat and counternl instances have no
// Stepper (bool and int variables), so their search never exits early.
func TestUnsafeGolden(t *testing.T) {
	suite, err := benchmarks.Suite(2)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, in := range suite {
		if in.Expected != engine.Unsafe {
			continue
		}
		seen++
		want, ok := unsafeDepths[in.Name]
		if !ok {
			t.Errorf("%s: no pinned depth", in.Name)
			continue
		}
		// the budget only guards against a hang; every run takes well
		// under a second
		res := Check(in.Sys, Options{Budget: engine.Budget{Timeout: time.Minute}})
		if res.Verdict != engine.Unsafe || res.Depth != want {
			t.Errorf("%s: %v at depth %d (%s); want unsafe at depth %d", in.Name, res.Verdict, res.Depth, res.Note, want)
			continue
		}
		if err := certify.Check(in.Sys, res, certify.Options{}); err != nil {
			t.Errorf("%s: trace fails certification: %v", in.Name, err)
		}
	}
	if seen != len(unsafeDepths) {
		t.Errorf("%d unsafe suite instances, %d pinned", seen, len(unsafeDepths))
	}
	for _, in := range []benchmarks.Instance{
		benchmarks.Must(benchmarks.Thermostat(false, 1)),
		benchmarks.Must(benchmarks.CounterNL(false, 1)),
	} {
		if _, ok := in.Sys.Stepper(); ok {
			t.Errorf("%s has a Stepper; the golden no longer covers a search without exits", in.Name)
		}
	}
}
