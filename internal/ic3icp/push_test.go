package ic3icp

import (
	"reflect"
	"testing"
	"time"

	"icpic3/internal/engine"
	"icpic3/internal/tnf"
	"icpic3/internal/ts"
)

// newTestChecker builds a checker the same way Check does, stopping
// before the main loop so tests can poke individual queries.
func newTestChecker(t *testing.T, src string) *checker {
	t.Helper()
	return buildChecker(t, mustParse(t, src))
}

// buildChecker is newTestChecker for a system already built.
func buildChecker(tb testing.TB, sys *ts.System) *checker {
	tb.Helper()
	opts := Options{}.withDefaults()
	ch := &checker{
		sys: sys, opts: opts, budget: opts.Budget.Start(),
		stats: map[string]int64{}, coreHits: map[coreKey]int64{},
	}
	if err := ch.build(); err != nil {
		tb.Fatal(err)
	}
	return ch
}

const logisticSrc = `
system logistic
var x : real [0, 1]
init x >= 0.1 and x <= 0.4
trans x' = 2.5 * x * (1 - x)
prop x <= 0.9
`

// TestSelfInductiveBoundedGrowth asserts that F_∞ probes run on their
// own query solver: repeated probes leave the main solver's variable
// count alone, and the probe solver, rebuilt from tnfMain plus the F_∞
// ops each time it has retired probeRebuildSlack one-shot variables,
// stays within its slack.  An F_∞ clause appended between probes reaches
// the probe solver before the next probe and survives every rebuild;
// frame ops never reach it.
func TestSelfInductiveBoundedGrowth(t *testing.T) {
	ch := newTestChecker(t, logisticSrc)
	ch.newFrame() // F_0: a frame op the probe solver skips
	x := ch.curIDs[0]
	// x' = 2.5x(1-x) >= 0.6 exactly when x is in [0.4, 0.6], so x >= 0.6
	// is entered from below until [0.35, 0.65] is excluded for good
	cube := icpCube{tnf.MkGe(x, 0.6)}
	if ch.selfInductive(cube, false) {
		t.Fatal("x >= 0.6 self-inductive with no F_∞ clause; want the obstruction near x = 0.5")
	}
	base := ch.inf.NumVars() - 1 // without the one retired .tmp
	mainVars := ch.main.NumVars()
	ch.addInfCube(icpCube{tnf.MkGe(x, 0.35), tnf.MkLe(x, 0.65)})

	builds, last := 0, ch.inf.Solver
	for i := 0; i < 3*probeRebuildSlack; i++ {
		if !ch.selfInductive(cube, false) {
			t.Fatalf("probe %d: x >= 0.6 not self-inductive under the F_∞ clause", i)
		}
		if ch.inf.Solver != last {
			builds, last = builds+1, ch.inf.Solver
		}
		if n, bound := ch.inf.NumVars(), base+probeRebuildSlack; n > bound {
			t.Fatalf("probe %d: probe solver has %d vars, want <= %d", i, n, bound)
		}
	}
	if builds < 2 {
		t.Errorf("probe solver rebuilt %d times over %d probes, want >= 2", builds, 3*probeRebuildSlack)
	}
	if ch.main.NumVars() != mainVars {
		t.Errorf("main solver grew from %d to %d vars across F_∞ probes", mainVars, ch.main.NumVars())
	}
	if len(ch.inf.acts) != 0 {
		t.Errorf("probe solver replayed %d frame activation variables, want 0", len(ch.inf.acts))
	}
	if got := ch.stats["solverRebuilds"]; got != 0 {
		t.Errorf("solverRebuilds = %d after probes alone, want 0 (it counts main rebuilds)", got)
	}
}

// pushInstances are safe systems whose proofs require several
// pushing phases, plus an unsafe one to pin verdict equality.
var pushInstances = []struct {
	name string
	src  string
}{
	{"decay", `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`},
	{"logistic", logisticSrc},
	{"coupled", `
system decay2
var x : real [0, 16]
var y : real [0, 16]
init x >= 0 and x <= 2 and y >= 0 and y <= 2
trans x' = x / 2 + 1 and y' = y / 4 + 0.5
prop x <= 9 or y <= 9
`},
	{"counter", `
system counter
var x : real [0, 100]
init x >= 0 and x <= 0
trans x' = x + 1
prop x <= 5
`},
	// frozen-parameter lemma instance: its proof needs several pushing
	// phases, so it exercises the triggered-push skip/re-arm machinery
	// (the other instances close before any clause is ever pushed).
	{"frozen", `
system frozen
var x : real [0, 100]
var y : real [0, 1]
init x >= 0 and x <= 1 and y = 0
trans x' = x + y and y' = y
prop x <= 5
`},
}

// workProfile extracts the triggered-pushing and solver-rebuild
// counters that must repeat exactly from run to run.
func workProfile(stats map[string]int64) [4]int64 {
	return [4]int64{
		stats["pushAttempts"],
		stats["pushSkippedTriggered"],
		stats["solverRebuilds"],
		stats["ctgBlocked"],
	}
}

// TestPropQueryAllocs pins the per-property-query allocation budget
// after the hot-path purge (precomputed index/domain tables + scratch
// buffers).  The remaining allocations are the solver's own search
// structures, not per-query rebuilds of the literal-mapping tables.
func TestPropQueryAllocs(t *testing.T) {
	ch := newTestChecker(t, logisticSrc)
	cube := icpCube{tnf.MkGe(ch.curIDs[0], 0.95), tnf.MkLe(ch.curIDs[0], 0.99)}
	if !ch.entirelyBad(cube) {
		t.Fatal("fixture cube should be entirely bad")
	}

	allocs := testing.AllocsPerRun(200, func() {
		ch.entirelyBad(cube)
	})
	// Measured ~3 allocs/op post-purge (solver-internal); the pre-purge
	// code paid an extra map + slice rebuild per query on top of that.
	const budget = 12
	if allocs > budget {
		t.Errorf("entirelyBad allocates %.1f/op, budget %d", allocs, budget)
	}
}

// BenchmarkPropQuery measures the zero-step property query that widening
// hammers (entirelyBad): wall-clock and allocs/op.
func BenchmarkPropQuery(b *testing.B) {
	sys, err := ts.Parse(logisticSrc)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{}.withDefaults()
	ch := &checker{sys: sys, opts: opts, budget: opts.Budget.Start(), stats: map[string]int64{}}
	if err := ch.build(); err != nil {
		b.Fatal(err)
	}
	cube := icpCube{tnf.MkGe(ch.curIDs[0], 0.95), tnf.MkLe(ch.curIDs[0], 0.99)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.entirelyBad(cube)
	}
}

// TestLearnedClauseDeterminismAcrossRuns is the IC3-level regression
// test for the nondeterministic map iteration fixed in
// icp/analyze.go: learned-clause literal order used to follow map
// iteration, so repeated runs could walk different proof obligations
// and disagree on depth or certificate.  Every repetition must agree,
// and triggered pushing must skip dormant attempts on some instance.
func TestLearnedClauseDeterminismAcrossRuns(t *testing.T) {
	var skipped int64
	for _, inst := range pushInstances {
		t.Run(inst.name, func(t *testing.T) {
			type outcome struct {
				verdict engine.Verdict
				depth   int
				inv     *engine.Certificate
				trace   []ts.State
				work    [4]int64
			}
			var ref outcome
			for rep := 0; rep < 3; rep++ {
				sys := mustParse(t, inst.src)
				res := Check(sys, Options{Budget: engine.Budget{Timeout: 30 * time.Second}})
				got := outcome{res.Verdict, res.Depth, res.Certificate, res.Trace, workProfile(res.Stats)}
				if rep == 0 {
					ref = got
					skipped += got.work[1]
					continue
				}
				if got.verdict != ref.verdict || got.depth != ref.depth {
					t.Fatalf("rep %d: got %v@%d, first run %v@%d",
						rep, got.verdict, got.depth, ref.verdict, ref.depth)
				}
				if !reflect.DeepEqual(got.inv, ref.inv) {
					t.Errorf("rep %d: invariant differs\n  got   %v\n  first %v", rep, got.inv, ref.inv)
				}
				if !reflect.DeepEqual(got.trace, ref.trace) {
					t.Errorf("rep %d: trace differs\n  got   %v\n  first %v", rep, got.trace, ref.trace)
				}
				if got.work != ref.work {
					t.Errorf("rep %d: work profile (attempts/skipped/rebuilds/ctg) differs\n  got   %v\n  first %v",
						rep, got.work, ref.work)
				}
			}
		})
	}
	if skipped == 0 {
		t.Error("no push attempt skipped on any instance: triggered pushing never engaged")
	}
}
