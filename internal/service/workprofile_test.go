package service

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"icpic3/internal/engine"
)

// frozenModel (the benchmark suite's frozen-parameter family) needs
// several pushing phases before its proof closes, so a run reports
// nonzero push-attempt counters.
const frozenModel = `
system frozen
var x : real [0, 100]
var y : real [0, 1]
init x >= 0 and x <= 1 and y = 0
trans x' = x + y and y' = y
prop x <= 5
`

// TestWorkProfileMetrics asserts that every row of engine.Counters is
// a key the ic3 run's Result.Stats carries, and that its summed value
// reaches /metrics on exactly one icpserve_engine_<name>_total line.
func TestWorkProfileMetrics(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})

	job, err := s.Submit(Request{Source: frozenModel, Engine: "ic3", Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := s.Wait(job.ID, 30*time.Second)
	if err != nil || st.Verdict != "safe" {
		t.Fatalf("result = %+v, %v", st, err)
	}
	s.mu.Lock()
	stats := s.jobs[job.ID].result.Stats
	s.mu.Unlock()

	m := s.Metrics()
	if m.PushAttempts() == 0 {
		t.Error("no push attempts recorded from a safe ic3 run")
	}
	// the named accessors kept for the benchmark (bench/serve.go)
	for key, get := range map[string]func() int64{
		"pushAttempts":         m.PushAttempts,
		"pushSkippedTriggered": m.PushSkipped,
		"solverRebuilds":       m.SolverRebuilds,
		"ctgBlocked":           m.CTGBlocked,
		"prefixKeptLevels":     m.PrefixKeptLevels,
		"trailEventsSaved":     m.TrailEventsSaved,
		"consecCacheHits":      m.ConsecCacheHits,
		"consecCacheMisses":    m.ConsecCacheMisses,
		"tnfOpsPruned":         m.TNFOpsPruned,
	} {
		if get() != m.Counter(key) {
			t.Errorf("accessor for %q = %d, Counter = %d", key, get(), m.Counter(key))
		}
	}
	lines := strings.Split(m.String(), "\n")
	for _, c := range engine.Counters {
		if _, ok := stats[c.Key]; !ok {
			t.Errorf("ic3 Result.Stats has no %q key", c.Key)
		}
		name := "icpserve_engine_" + c.Name() + "_total "
		want := fmt.Sprintf("%s%d", name, m.Counter(c.Key))
		found, named := 0, 0
		for _, l := range lines {
			if strings.HasPrefix(l, name) {
				named++
				if l == want {
					found++
				}
			}
		}
		if named != 1 || found != 1 {
			t.Errorf("want exactly one %q line, got %d lines named %q (%d matching)", want, named, name, found)
		}
	}
}
