package ic3icp

import (
	"testing"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/engine"
)

// searchProfile is the deterministic fingerprint of one IC3 run: the
// verdict, the IC3-level counters, the search counters summed over the
// main solver and its rebuilds, and the F_∞ probe solver's work.
type searchProfile struct {
	verdict      engine.Verdict
	queries      int64
	infQueries   int64
	watchVisits  int64
	revisions    int64
	propagations int64
	contractions int64
	conflicts    int64
	decisions    int64
	infRevisions int64
	infDecisions int64
	infAccepted  int64
}

// TestWorkProfileGolden pins the search on two fixed instances, so that
// "bit-identical search" is checked rather than claimed: a change to the
// contraction core, the watch layer or the IC3 schedule that is meant to
// leave the search alone must keep every number.  A change that alters
// the search on purpose updates these goldens and says so.
func TestWorkProfileGolden(t *testing.T) {
	pendulum := benchmarks.Must(benchmarks.Pendulum(true, 2))
	// the bound ic3-nonlinear proves this instance at
	if err := pendulum.Sys.ParseProp("th <= 1.224"); err != nil {
		t.Fatal(err)
	}
	poly := benchmarks.Must(benchmarks.Poly(false, 4))
	cases := []struct {
		in   benchmarks.Instance
		want searchProfile
	}{
		{pendulum, searchProfile{engine.Safe, 761, 1344, 127773, 95434, 57356, 49485, 134, 2375, 437402, 2752, 461}},
		{poly, searchProfile{engine.Unsafe, 348, 5, 113494, 61708, 38795, 35592, 209, 880, 513, 0, 5}},
	}
	for _, c := range cases {
		// the budget only guards against a hang: both runs take well
		// under a second, and a run cut by it fails the verdict check
		res, ch := checkWith(c.in.Sys, Options{Budget: engine.Budget{Timeout: time.Minute}}, nil)
		if ch == nil {
			t.Fatalf("%s: %s", c.in.Name, res.Note)
		}
		b := &ch.main.total
		got := searchProfile{res.Verdict, res.Stats["queries"], res.Stats["infQueries"], res.Stats["watchVisits"], res.Stats["revisions"],
			b.Propagations, b.Contractions, b.Conflicts, b.Decisions,
			res.Stats["infRevisions"], res.Stats["infDecisions"], res.Stats["infAccepted"]}
		if got != c.want {
			t.Errorf("%s: work profile\n got %+v\nwant %+v", c.in.Name, got, c.want)
		}
	}
}
