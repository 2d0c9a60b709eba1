// Benchmarks regenerating every table and figure of the evaluation
// (DESIGN.md §5, EXPERIMENTS.md).  Each benchmark performs one full
// regeneration per iteration and reports domain metrics (instances solved,
// cubes learned) alongside the standard time/op.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package icpic3_test

import (
	"io"
	"testing"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/engine"
	"icpic3/internal/harness"
	"icpic3/internal/ic3icp"
)

// benchBudget is the per-run engine budget inside benchmarks: small enough
// to keep a full `go test -bench=.` session laptop-sized, large enough
// that the qualitative shape (who solves what) is stable.
const benchBudget = 10 * time.Second

// benchSuite returns the benchmark grid used by the table benches
// (2 instances per family and polarity = 24 instances).
func benchSuite() []benchmarks.Instance {
	s, err := benchmarks.Suite(2)
	if err != nil {
		panic(err)
	}
	return s
}

// BenchmarkTable1SuiteStats regenerates Table I (suite statistics).
func BenchmarkTable1SuiteStats(b *testing.B) {
	suite := benchSuite()
	for i := 0; i < b.N; i++ {
		harness.Table1(io.Discard, suite)
	}
}

// BenchmarkTable2EngineComparison regenerates Table II: all three engines
// over the full suite.
func BenchmarkTable2EngineComparison(b *testing.B) {
	suite := benchSuite()
	names := harness.EngineNames()
	var solved, wrong int64
	for i := 0; i < b.N; i++ {
		records := harness.RunSuite(suite, names, benchBudget, 0)
		for _, s := range harness.Summarize(records, names) {
			solved += int64(s.SolvedSafe + s.SolvedUnsaf)
			wrong += int64(s.Wrong)
		}
	}
	b.ReportMetric(float64(solved)/float64(b.N), "solved/op")
	b.ReportMetric(float64(wrong)/float64(b.N), "wrong/op")
}

// BenchmarkTable3Generalization regenerates Table III: the IC3-ICP
// generalization ablation over the safe instances.
func BenchmarkTable3Generalization(b *testing.B) {
	var safe []benchmarks.Instance
	for _, in := range benchSuite() {
		if in.Expected == engine.Safe && !in.Hard {
			safe = append(safe, in)
		}
	}
	var solved int64
	for i := 0; i < b.N; i++ {
		ab := harness.RunAblation(safe, benchBudget, 0)
		for _, recs := range ab {
			for _, r := range recs {
				if r.Correct() {
					solved++
				}
			}
		}
	}
	b.ReportMetric(float64(solved)/float64(b.N), "solved/op")
}

// BenchmarkTable4BooleanIC3 regenerates Table IV: Boolean IC3 vs SAT BMC
// on the circuit suite.
func BenchmarkTable4BooleanIC3(b *testing.B) {
	circuits := benchmarks.Circuits()
	for i := 0; i < b.N; i++ {
		records := harness.RunCircuits(circuits, 128)
		for _, r := range records {
			if r.Engine == "ic3-bool" && r.Verdict.String() != r.Expected.String() {
				b.Fatalf("wrong verdict on %s", r.Instance)
			}
		}
	}
}

// BenchmarkFig1Cactus regenerates the cactus-plot series (Fig. 1).
func BenchmarkFig1Cactus(b *testing.B) {
	suite := benchSuite()
	names := harness.EngineNames()
	for i := 0; i < b.N; i++ {
		records := harness.RunSuite(suite, names, benchBudget, 0)
		series := harness.CactusSeries(records, names)
		if len(series) != len(names) {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFig2Scatter regenerates the IC3-vs-BMC scatter points (Fig. 2).
func BenchmarkFig2Scatter(b *testing.B) {
	suite := benchSuite()
	names := []string{"ic3-icp", "bmc-icp"}
	for i := 0; i < b.N; i++ {
		records := harness.RunSuite(suite, names, benchBudget, 0)
		pts := harness.ScatterSeries(records, "ic3-icp", "bmc-icp", benchBudget.Seconds())
		if len(pts) != len(suite) {
			b.Fatalf("scatter points = %d", len(pts))
		}
	}
}

// BenchmarkFig3Epsilon regenerates the precision sweep (Fig. 3).
func BenchmarkFig3Epsilon(b *testing.B) {
	var small []benchmarks.Instance
	for _, in := range benchSuite() {
		if (in.Family == "poly" || in.Family == "logistic") && in.Expected == engine.Safe {
			small = append(small, in)
		}
	}
	epss := []float64{1e-2, 1e-4, 1e-6}
	for i := 0; i < b.N; i++ {
		pts := harness.EpsSweep(small, epss, benchBudget, 0)
		if len(pts) != len(epss) {
			b.Fatal("missing sweep points")
		}
	}
}

// BenchmarkFig4Frames regenerates the frame-growth figure (Fig. 4).
func BenchmarkFig4Frames(b *testing.B) {
	var vehicles []benchmarks.Instance
	for _, in := range benchSuite() {
		if in.Family == "vehicle" {
			vehicles = append(vehicles, in)
		}
	}
	var cubes int64
	for i := 0; i < b.N; i++ {
		pts := harness.FrameGrowth(vehicles, benchBudget, 0)
		for _, p := range pts {
			cubes += p.Cubes
		}
	}
	b.ReportMetric(float64(cubes)/float64(b.N), "cubes/op")
}

// BenchmarkSolverICP measures raw CDCL(ICP) solving on one representative
// nonlinear query (the logistic safe instance's transition step), isolating
// solver cost from IC3 orchestration.
func BenchmarkSolverICP(b *testing.B) {
	in := benchmarks.Must(benchmarks.Logistic(true, 0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := ic3icp.Check(in.Sys, ic3icp.Options{Budget: engine.Budget{Timeout: benchBudget}})
		if res.Verdict != engine.Safe {
			b.Fatalf("verdict = %v", res.Verdict)
		}
	}
}

// TestSolverICPAllocs pins the allocation budget of the representative
// CDCL(ICP) run that BenchmarkSolverICP times.  The watched-bound core
// landed at ~1590 allocs/op; the triggered-pushing rework added the
// durable-op log, per-cube trigger records, and the UNSAT-core hit
// table (~1760 allocs/op, in exchange for cutting queries ~3x on the
// consecution-bound suite); the assumption-aware query core added the
// consecution memo's table and per-store cube/core copies (~1830
// allocs/op, in exchange for short-circuiting repeated UNSAT queries
// and ~26% fewer solver queries suite-wide).  The guard sits a small
// margin above so a hot-path allocation regression fails loudly
// without flaking on minor drift below it.
func TestSolverICPAllocs(t *testing.T) {
	in := benchmarks.Must(benchmarks.Logistic(true, 0))
	allocs := testing.AllocsPerRun(5, func() {
		res := ic3icp.Check(in.Sys, ic3icp.Options{Budget: engine.Budget{Timeout: benchBudget}})
		if res.Verdict != engine.Safe {
			t.Fatalf("verdict = %v", res.Verdict)
		}
	})
	const budget = 1950
	if allocs > budget {
		t.Errorf("solver ICP run allocates %.0f/op, budget %d", allocs, budget)
	}
}

// BenchmarkIC3BoolSafeCounter measures the Boolean PDR baseline on a safe
// counter (invariant discovery path).
func BenchmarkIC3BoolSafeCounter(b *testing.B) {
	circuits := benchmarks.Circuits()
	var safecounter benchmarks.CircuitInstance
	for _, ci := range circuits {
		if ci.Name == "safecounter8" {
			safecounter = ci
		}
	}
	records := 0
	for i := 0; i < b.N; i++ {
		res := harness.RunCircuits([]benchmarks.CircuitInstance{safecounter}, 64)
		records += len(res)
	}
	if records == 0 {
		b.Fatal("no records")
	}
}
