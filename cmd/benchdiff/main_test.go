package main

import (
	"testing"

	"icpic3/internal/engine"
	"icpic3/internal/harness"
)

func run(solved, wrong int, engines ...harness.BenchEngine) harness.BenchRun {
	return harness.BenchRun{Solved: solved, Wrong: wrong, WallSec: 1, Engines: engines}
}

func eng(name string, solved int, sps float64, wrong int) harness.BenchEngine {
	return harness.BenchEngine{
		Engine: name, SolvedSafe: solved, SolvedPerSec: sps, Wrong: wrong,
		EngineSec: 10, // above minGateSec so the throughput gate applies
	}
}

func TestDiffRunNoRegression(t *testing.T) {
	old := run(10, 0, eng("ic3-icp", 5, 1.0, 0))
	cur := run(11, 0, eng("ic3-icp", 6, 1.2, 0))
	if diffRun("baseline", old, cur, 0.10) {
		t.Fatal("improvement flagged as regression")
	}
}

func TestDiffRunFlagsFewerSolved(t *testing.T) {
	old := run(10, 0, eng("ic3-icp", 5, 1.0, 0))
	cur := run(9, 0, eng("ic3-icp", 4, 1.0, 0))
	if !diffRun("baseline", old, cur, 0.10) {
		t.Fatal("solved drop not flagged")
	}
}

func TestDiffRunFlagsWrongVerdicts(t *testing.T) {
	old := run(10, 0, eng("ic3-icp", 5, 1.0, 0))
	cur := run(10, 1, eng("ic3-icp", 5, 1.0, 1))
	if !diffRun("baseline", old, cur, 0.10) {
		t.Fatal("new wrong verdict not flagged")
	}
}

func report(speedup float64, procs, workers int) *harness.BenchReport {
	return &harness.BenchReport{
		GoMaxProcs: procs,
		SpeedupX:   speedup,
		Parallel:   harness.BenchRun{Workers: workers},
	}
}

func TestDiffScalingFlagsDrop(t *testing.T) {
	if !diffScaling(report(3.0, 8, 8), report(1.5, 8, 8), 0.10) {
		t.Fatal("halved speedup at identical config not flagged")
	}
	if diffScaling(report(3.0, 8, 8), report(2.9, 8, 8), 0.10) {
		t.Fatal("within-tolerance speedup jitter flagged")
	}
	if diffScaling(report(3.0, 8, 8), report(3.4, 8, 8), 0.10) {
		t.Fatal("improvement flagged as regression")
	}
}

func TestDiffScalingSkipsConfigChanges(t *testing.T) {
	// the seed-era snapshots ran at gomaxprocs 1 (speedup ~1x); the jump
	// to NumCPU changes the config, so the ratio is tracked, not gated
	if diffScaling(report(1.0, 1, 1), report(0.8, 8, 8), 0.10) {
		t.Fatal("cross-config speedup change gated")
	}
	if diffScaling(report(3.0, 8, 8), report(1.0, 8, 4), 0.10) {
		t.Fatal("worker-count change gated")
	}
}

func TestDiffScalingSkipsSingleWorker(t *testing.T) {
	// one proc or one worker: the parallel leg only repeats the
	// baseline, so its speedup (1.00x -> 0.96x on the 1-CPU snapshots)
	// is noise — tracked, not gated
	if diffScaling(report(1.0, 1, 1), report(0.5, 1, 1), 0.10) {
		t.Fatal("single-proc speedup drop gated")
	}
	if diffScaling(report(1.0, 8, 1), report(0.5, 8, 1), 0.10) {
		t.Fatal("single-worker speedup drop gated")
	}
}

func TestDiffRunSkipsThroughputGateOnTinySamples(t *testing.T) {
	// sub-second engine times make solved/sec pure scheduler jitter:
	// a "13% drop" here is ~30ms of wall — tracked, never gated
	tiny := func(sps float64) harness.BenchEngine {
		e := eng("kind-icp", 26, sps, 0)
		e.EngineSec = 0.25
		return e
	}
	old := run(26, 0, tiny(110.0))
	cur := run(26, 0, tiny(87.0))
	if diffRun("parallel", old, cur, 0.10) {
		t.Fatal("sub-second throughput jitter gated")
	}
}

// engQ builds a per-engine slice carrying the work-profile counters.
func engQ(name string, solved int, queries, attempts, skipped, rebuilds int64) harness.BenchEngine {
	e := harness.BenchEngine{Engine: name, SolvedSafe: solved, SolvedPerSec: 1.0}
	e.Counts[engine.CounterIndex("queries")] = queries
	e.Counts[engine.CounterIndex("pushAttempts")] = attempts
	e.Counts[engine.CounterIndex("pushSkippedTriggered")] = skipped
	e.Counts[engine.CounterIndex("solverRebuilds")] = rebuilds
	return e
}

func TestDiffRunFlagsQueryGrowth(t *testing.T) {
	old := run(10, 0, engQ("ic3-icp", 10, 1000, 50, 200, 2))
	cur := run(10, 0, engQ("ic3-icp", 10, 1200, 300, 0, 2))
	if !diffRun("baseline", old, cur, 0.10) {
		t.Fatal("20% query growth not flagged at the queries row's 10% gate")
	}
	// within tolerance: jitter, not a regression; push attempts are a
	// tracked row (Gate 0), so their growth alone never gates
	cur = run(10, 0, engQ("ic3-icp", 10, 1050, 500, 200, 2))
	if diffRun("baseline", old, cur, 0.10) {
		t.Fatal("within-tolerance query jitter or tracked-counter growth flagged")
	}
	// fewer queries is the goal, never a regression
	cur = run(10, 0, engQ("ic3-icp", 10, 400, 20, 300, 1))
	if diffRun("baseline", old, cur, 0.10) {
		t.Fatal("query reduction flagged as regression")
	}
}

func TestDiffRunSkipsQueryGateWithoutOldCounts(t *testing.T) {
	// snapshots predating the work-profile counters carry queries == 0:
	// tracked in the output, never gated
	old := run(10, 0, eng("ic3-icp", 5, 1.0, 0))
	cur := run(10, 0, engQ("ic3-icp", 5, 50000, 4000, 0, 0))
	if diffRun("baseline", old, cur, 0.10) {
		t.Fatal("query gate fired against a counter-less old snapshot")
	}
}

func TestDiffRunFlagsThroughputDrop(t *testing.T) {
	old := run(10, 0, eng("ic3-icp", 5, 1.0, 0))
	cur := run(10, 0, eng("ic3-icp", 5, 0.5, 0))
	if !diffRun("baseline", old, cur, 0.10) {
		t.Fatal("solved/sec collapse not flagged")
	}
	// within tolerance: not a regression
	cur = run(10, 0, eng("ic3-icp", 5, 0.95, 0))
	if diffRun("baseline", old, cur, 0.10) {
		t.Fatal("within-tolerance jitter flagged")
	}
}
