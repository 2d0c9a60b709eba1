package engine

import "testing"

func TestCounterNames(t *testing.T) {
	// the spellings committed BENCH snapshots and /metrics already use
	for key, want := range map[string]string{
		"queries":              "queries",
		"pushAttempts":         "push_attempts",
		"pushSkippedTriggered": "push_skipped_triggered",
		"solverRebuilds":       "solver_rebuilds",
		"ctgBlocked":           "ctg_blocked",
		"prefixKeptLevels":     "prefix_kept_levels",
		"trailEventsSaved":     "trail_events_saved",
		"consecCacheHits":      "consec_cache_hits",
		"consecCacheMisses":    "consec_cache_misses",
		"tnfOpsPruned":         "tnf_ops_pruned",
	} {
		if got := Counters[CounterIndex(key)].Name(); got != want {
			t.Errorf("%s: Name() = %q, want %q", key, got, want)
		}
	}
	seen := map[string]bool{}
	for _, c := range Counters {
		if seen[c.Name()] {
			t.Errorf("duplicate counter name %q", c.Name())
		}
		seen[c.Name()] = true
		if c.Help == "" || c.Gate < 0 {
			t.Errorf("%s: needs help text and a non-negative gate", c.Key)
		}
	}
}

func TestCountsAdd(t *testing.T) {
	var c Counts
	c.Add(nil)
	c.Add(map[string]int64{"queries": 3, "notACounter": 7})
	c.Add(map[string]int64{"queries": 4, "tnfOpsPruned": 2})
	if c[CounterIndex("queries")] != 7 || c[CounterIndex("tnfOpsPruned")] != 2 {
		t.Fatalf("Add summed %v", c)
	}
	var sum int64
	for _, v := range c {
		sum += v
	}
	if sum != 9 {
		t.Fatalf("unknown key leaked into the counts: %v", c)
	}
}

func TestCounterIndexPanicsOnUnknownKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CounterIndex accepted a misspelt key")
		}
	}()
	CounterIndex("pushAttempt")
}
