package harness

import (
	"testing"
	"time"

	"icpic3/internal/engine"
)

// stripTiming reduces a record to its order/verdict content, dropping
// wall-clock-dependent fields so runs can be compared exactly.
type recordKey struct {
	Instance string
	Engine   string
	Verdict  engine.Verdict
	Depth    int
	Trace    int // counterexample length
	Cert     int // certificate cube count
}

func keysOf(records []RunRecord) []recordKey {
	out := make([]recordKey, len(records))
	for i, r := range records {
		k := recordKey{
			Instance: r.Instance, Engine: r.Engine,
			Verdict: r.Result.Verdict, Depth: r.Result.Depth,
			Trace: len(r.Result.Trace),
		}
		if r.Result.Certificate != nil {
			k.Cert = len(r.Result.Certificate.Cubes)
		}
		out[i] = k
	}
	return out
}

// TestRunSuiteWorkersDeterminism asserts verdicts, record order, and
// certificate shapes are identical for 1 and 8 workers.
func TestRunSuiteWorkersDeterminism(t *testing.T) {
	suite := smallSuite()
	seq := keysOf(RunSuite(suite, EngineNames(), 20*time.Second, 1))
	par := keysOf(RunSuite(suite, EngineNames(), 20*time.Second, 8))
	if len(seq) != len(par) {
		t.Fatalf("record counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("record %d differs:\n  workers=1: %+v\n  workers=8: %+v", i, seq[i], par[i])
		}
	}
}

// TestRunSuiteWorkersRace drives the parallel suite runner with shared
// instances; its value is under `go test -race`.
func TestRunSuiteWorkersRace(t *testing.T) {
	records := RunSuite(smallSuite(), EngineNames(), 20*time.Second, 4)
	for _, r := range records {
		if r.Wrong() {
			t.Errorf("WRONG VERDICT: %s on %s: got %v want %v",
				r.Engine, r.Instance, r.Result.Verdict, r.Expected)
		}
	}
}

// TestForEachParallelCoversAllIndices checks the work distribution:
// every index runs exactly once for any worker count.
func TestForEachParallelCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		counts := make([]int32, n)
		forEachParallel(n, workers, func(i int) { counts[i]++ })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestEpsSweepWorkersMatchesSequential pins the parallel reduction to
// the sequential aggregate.
func TestEpsSweepWorkersMatchesSequential(t *testing.T) {
	insts := smallSuite()[:2]
	epss := []float64{1e-3, 1e-5}
	seq := EpsSweep(insts, epss, 10*time.Second, 1)
	par := EpsSweep(insts, epss, 10*time.Second, 8)
	if len(seq) != len(par) {
		t.Fatalf("point counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Eps != par[i].Eps || seq[i].Solved != par[i].Solved || seq[i].Unknown != par[i].Unknown {
			t.Errorf("eps point %d differs: %+v vs %+v", i, seq[i], par[i])
		}
	}
}

// TestBenchJSON smoke-tests the machine-readable perf snapshot.
func TestBenchJSON(t *testing.T) {
	rep, err := BenchJSON(1, 2*time.Second, 4, "2026-01-01")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline.Workers != 1 || rep.Parallel.Workers != 4 {
		t.Errorf("workers = %d/%d", rep.Baseline.Workers, rep.Parallel.Workers)
	}
	if rep.Baseline.Wrong != 0 || rep.Parallel.Wrong != 0 {
		t.Errorf("wrong verdicts: %d/%d", rep.Baseline.Wrong, rep.Parallel.Wrong)
	}
	if rep.Baseline.Solved == 0 || rep.Parallel.Solved == 0 {
		t.Errorf("a leg solved nothing: %d/%d", rep.Baseline.Solved, rep.Parallel.Solved)
	}
	// The legs run under a wall-clock budget, so an instance whose solve
	// time is near the budget may finish in one leg and time out in the
	// other — solved counts are load-sensitive, not a determinism
	// invariant (that is pinned by the *DeterminismAcross* tests with
	// generous budgets).  What the legs must never do is contradict each
	// other: the same (instance, engine) run deciding Safe in one leg
	// and Unsafe in the other would be a real worker-count leak.
	base, par := rep.Records()
	if len(base) != len(par) {
		t.Fatalf("record counts differ: %d vs %d", len(base), len(par))
	}
	for i := range base {
		b, p := base[i], par[i]
		if b.Instance != p.Instance || b.Engine != p.Engine {
			t.Fatalf("record %d misaligned: %s/%s vs %s/%s", i, b.Instance, b.Engine, p.Instance, p.Engine)
		}
		bv, pv := b.Result.Verdict, p.Result.Verdict
		if bv != engine.Unknown && pv != engine.Unknown && bv != pv {
			t.Errorf("%s/%s: legs contradict: %v vs %v", b.Instance, b.Engine, bv, pv)
		}
	}
	if rep.SpeedupX <= 0 {
		t.Errorf("speedup = %v", rep.SpeedupX)
	}
	if len(rep.Baseline.Engines) != len(EngineNames()) {
		t.Errorf("engine breakdown = %d entries", len(rep.Baseline.Engines))
	}
}
