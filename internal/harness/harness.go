// Package harness runs the verification engines over the benchmark suite
// and renders every table and figure of the evaluation (DESIGN.md §5) as
// deterministic text: competition-style tables, cactus-plot series and
// scatter-plot points.
package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/engine"
	"icpic3/internal/expr"
	"icpic3/internal/ic3bool"
	"icpic3/internal/ic3icp"
	"icpic3/internal/runner"
	"icpic3/internal/tnf"
	"icpic3/internal/ts"
)

// suiteSpec configures the evaluation lineup: engine defaults, except
// the BMC and k-induction bounds.  RunSuite fills in the engine
// and the per-run budget.
var suiteSpec = runner.Spec{MaxDepth: 128, MaxK: 24}

// EngineNames returns the evaluation lineup in report order: the report
// labels of the runner's single engines.
func EngineNames() []string {
	var names []string
	for _, e := range runner.Members() {
		names = append(names, e.Label)
	}
	return names
}

// RunRecord is the outcome of one engine on one instance.
type RunRecord struct {
	Instance string
	Family   string
	Engine   string
	Expected engine.Verdict
	Result   engine.Result
}

// Correct reports whether the verdict matches ground truth (Unknown is
// never "correct" but also never "wrong").
func (r RunRecord) Correct() bool {
	return r.Result.Verdict == r.Expected
}

// Wrong reports a verdict contradicting ground truth (must never happen).
func (r RunRecord) Wrong() bool {
	return r.Result.Verdict != engine.Unknown && r.Result.Verdict != r.Expected
}

// --- Table I: suite statistics ------------------------------------------

// Table1 renders per-family statistics of the compiled instances.
func Table1(w io.Writer, instances []benchmarks.Instance) {
	type agg struct {
		n, safe, unsafe     int
		vars, cons, clauses int
	}
	byFam := map[string]*agg{}
	var order []string
	for _, in := range instances {
		a, ok := byFam[in.Family]
		if !ok {
			a = &agg{}
			byFam[in.Family] = a
			order = append(order, in.Family)
		}
		a.n++
		if in.Expected == engine.Safe {
			a.safe++
		} else {
			a.unsafe++
		}
		st := compileStats(in.Sys)
		a.vars += st.Vars
		a.cons += st.Cons
		a.clauses += st.Clauses
	}
	fmt.Fprintln(w, "Table I: benchmark suite statistics")
	fmt.Fprintf(w, "%-12s %5s %5s %7s %9s %9s %9s\n",
		"family", "#inst", "#safe", "#unsafe", "avg vars", "avg cons", "avg cls")
	for _, f := range order {
		a := byFam[f]
		fmt.Fprintf(w, "%-12s %5d %5d %7d %9.1f %9.1f %9.1f\n",
			f, a.n, a.safe, a.unsafe,
			float64(a.vars)/float64(a.n), float64(a.cons)/float64(a.n),
			float64(a.clauses)/float64(a.n))
	}
}

// compileStats compiles one transition-relation step and reports sizes.
func compileStats(sys *ts.System) tnf.Stats {
	t := tnf.NewSystem()
	if _, err := sys.DeclareStep(t, 0); err != nil {
		return tnf.Stats{}
	}
	if _, err := sys.DeclareStep(t, 1); err != nil {
		return tnf.Stats{}
	}
	if err := t.Assert(ts.AtStep(sys.Trans, 0)); err != nil {
		return tnf.Stats{}
	}
	if _, err := t.CompileBool(expr.Not(ts.AtStep(sys.Prop, 0))); err != nil {
		return tnf.Stats{}
	}
	return t.Stats()
}

// --- Table II: engine comparison ----------------------------------------

// EngineSummary aggregates one engine's results.
type EngineSummary struct {
	Engine      string
	SolvedSafe  int
	SolvedUnsaf int
	Unknown     int
	Wrong       int
	TotalTime   time.Duration
	Counts      engine.Counts // work counters summed from Result.Stats
}

// Summarize aggregates run records per engine.
func Summarize(records []RunRecord, names []string) []EngineSummary {
	byEngine := map[string]*EngineSummary{}
	for _, n := range names {
		byEngine[n] = &EngineSummary{Engine: n}
	}
	for _, r := range records {
		s := byEngine[r.Engine]
		if s == nil {
			continue
		}
		s.TotalTime += r.Result.Runtime
		s.Counts.Add(r.Result.Stats)
		switch {
		case r.Wrong():
			s.Wrong++
		case r.Result.Verdict == engine.Safe:
			s.SolvedSafe++
		case r.Result.Verdict == engine.Unsafe:
			s.SolvedUnsaf++
		default:
			s.Unknown++
		}
	}
	out := make([]EngineSummary, 0, len(names))
	for _, n := range names {
		out = append(out, *byEngine[n])
	}
	return out
}

// Table2 renders the engine comparison.
func Table2(w io.Writer, records []RunRecord, names []string) {
	fmt.Fprintln(w, "Table II: solved instances per engine")
	fmt.Fprintf(w, "%-10s %6s %8s %8s %6s %12s", "engine", "safe", "unsafe", "unknown", "wrong", "total time")
	for _, c := range engine.Counters {
		fmt.Fprintf(w, " %s", c.Name())
	}
	fmt.Fprintln(w)
	for _, s := range Summarize(records, names) {
		fmt.Fprintf(w, "%-10s %6d %8d %8d %6d %12s",
			s.Engine, s.SolvedSafe, s.SolvedUnsaf, s.Unknown, s.Wrong,
			s.TotalTime.Round(time.Millisecond))
		for i, c := range engine.Counters {
			fmt.Fprintf(w, " %*d", len(c.Name()), s.Counts[i])
		}
		fmt.Fprintln(w)
	}
}

// --- Table III: generalization ablation ---------------------------------

// GenModes returns the ablation lineup for Table III.
func GenModes() []ic3icp.GenMode {
	return []ic3icp.GenMode{ic3icp.GenNone, ic3icp.GenCore, ic3icp.GenCoreWiden}
}

// Table3 renders the generalization ablation.
func Table3(w io.Writer, ablation map[string][]RunRecord) {
	fmt.Fprintln(w, "Table III: IC3-ICP generalization ablation")
	fmt.Fprintf(w, "%-12s %7s %8s %6s %10s %12s\n",
		"mode", "solved", "unknown", "wrong", "cubes", "total time")
	for _, mode := range GenModes() {
		recs := ablation[mode.String()]
		solved, unknown, wrong := 0, 0, 0
		var cubes int64
		var total time.Duration
		for _, r := range recs {
			total += r.Result.Runtime
			cubes += r.Result.Stats["blockedCubes"]
			switch {
			case r.Wrong():
				wrong++
			case r.Result.Verdict == engine.Unknown:
				unknown++
			default:
				solved++
			}
		}
		fmt.Fprintf(w, "%-12s %7d %8d %6d %10d %12s\n",
			mode, solved, unknown, wrong, cubes, total.Round(time.Millisecond))
	}
}

// --- Table IV: Boolean anchor -------------------------------------------

// CircuitRecord is the outcome of one Boolean engine on one circuit.
type CircuitRecord struct {
	Instance string
	Engine   string
	Expected engine.Verdict
	Verdict  ic3bool.Verdict
	Runtime  time.Duration
	Depth    int
}

// RunCircuits runs Boolean IC3 and Boolean BMC on the circuit suite.
func RunCircuits(instances []benchmarks.CircuitInstance, bmcDepth int) []CircuitRecord {
	var out []CircuitRecord
	for _, ci := range instances {
		t0 := time.Now()
		res := ic3bool.Check(ci.Circuit, ic3bool.Options{})
		out = append(out, CircuitRecord{
			Instance: ci.Name, Engine: "ic3-bool", Expected: ci.Expected,
			Verdict: res.Verdict, Runtime: time.Since(t0), Depth: res.Frames,
		})
		t0 = time.Now()
		bres := ic3bool.BMC(ci.Circuit, bmcDepth)
		out = append(out, CircuitRecord{
			Instance: ci.Name, Engine: "bmc-sat", Expected: ci.Expected,
			Verdict: bres.Verdict, Runtime: time.Since(t0), Depth: bres.Frames,
		})
	}
	return out
}

// Table4 renders the Boolean comparison.
func Table4(w io.Writer, records []CircuitRecord) {
	fmt.Fprintln(w, "Table IV: Boolean circuits, IC3 vs BMC (SAT)")
	fmt.Fprintf(w, "%-20s %-9s %-8s %6s %12s\n", "instance", "engine", "verdict", "depth", "time")
	for _, r := range records {
		fmt.Fprintf(w, "%-20s %-9s %-8s %6d %12s\n",
			r.Instance, r.Engine, r.Verdict, r.Depth, r.Runtime.Round(time.Millisecond))
	}
}

// --- Fig. 1: cactus plot --------------------------------------------------

// CactusSeries returns, per engine, the sorted runtimes of solved
// instances: point i is (i+1 solved, cumulative seconds).
func CactusSeries(records []RunRecord, names []string) map[string][]float64 {
	out := map[string][]float64{}
	for _, n := range names {
		var times []float64
		for _, r := range records {
			if r.Engine == n && r.Correct() {
				times = append(times, r.Result.Runtime.Seconds())
			}
		}
		sort.Float64s(times)
		out[n] = times
	}
	return out
}

// Fig1 renders the cactus-plot series as text.
func Fig1(w io.Writer, records []RunRecord, names []string) {
	fmt.Fprintln(w, "Fig. 1: cactus plot (instances solved vs per-instance time)")
	series := CactusSeries(records, names)
	for _, n := range names {
		fmt.Fprintf(w, "%s:", n)
		cum := 0.0
		for i, t := range series[n] {
			cum += t
			fmt.Fprintf(w, " (%d,%.3fs)", i+1, cum)
		}
		fmt.Fprintln(w)
	}
}

// --- Fig. 2: scatter plot -------------------------------------------------

// ScatterPoint compares two engines on one instance.
type ScatterPoint struct {
	Instance string
	X, Y     float64 // seconds; timeout/unknown mapped to the cap
	XSolved  bool
	YSolved  bool
}

// ScatterSeries builds IC3-vs-BMC points; unsolved runs sit at cap.
func ScatterSeries(records []RunRecord, xEngine, yEngine string, cap float64) []ScatterPoint {
	type pair struct{ x, y *RunRecord }
	byInst := map[string]*pair{}
	var order []string
	for i := range records {
		r := &records[i]
		p, ok := byInst[r.Instance]
		if !ok {
			p = &pair{}
			byInst[r.Instance] = p
			order = append(order, r.Instance)
		}
		switch r.Engine {
		case xEngine:
			p.x = r
		case yEngine:
			p.y = r
		}
	}
	var out []ScatterPoint
	for _, name := range order {
		p := byInst[name]
		if p.x == nil || p.y == nil {
			continue
		}
		pt := ScatterPoint{Instance: name, X: cap, Y: cap}
		if p.x.Correct() {
			pt.X = p.x.Result.Runtime.Seconds()
			pt.XSolved = true
		}
		if p.y.Correct() {
			pt.Y = p.y.Result.Runtime.Seconds()
			pt.YSolved = true
		}
		out = append(out, pt)
	}
	return out
}

// Fig2 renders the scatter points as text.
func Fig2(w io.Writer, records []RunRecord, xEngine, yEngine string, cap float64) {
	fmt.Fprintf(w, "Fig. 2: scatter %s (x) vs %s (y), cap %.0fs\n", xEngine, yEngine, cap)
	for _, p := range ScatterSeries(records, xEngine, yEngine, cap) {
		fmt.Fprintf(w, "%-24s x=%8.3fs y=%8.3fs\n", p.Instance, p.X, p.Y)
	}
}

// --- Fig. 3: ε sweep -------------------------------------------------------

// EpsPoint is one ε-sweep measurement.
type EpsPoint struct {
	Eps     float64
	Solved  int
	Unknown int
	Time    time.Duration
}

// Fig3 renders the ε sweep.
func Fig3(w io.Writer, points []EpsPoint) {
	fmt.Fprintln(w, "Fig. 3: precision sweep (minimum splitting width ε)")
	fmt.Fprintf(w, "%10s %7s %9s %12s\n", "eps", "solved", "unsolved", "total time")
	for _, p := range points {
		fmt.Fprintf(w, "%10.0e %7d %9d %12s\n", p.Eps, p.Solved, p.Unknown, p.Time.Round(time.Millisecond))
	}
}

// --- Fig. 4: frame growth --------------------------------------------------

// FramePoint records IC3 work against instance scale.
type FramePoint struct {
	Instance string
	Frames   int
	Cubes    int64
	Time     time.Duration
}

// Fig4 renders frame growth.
func Fig4(w io.Writer, points []FramePoint) {
	fmt.Fprintln(w, "Fig. 4: IC3-ICP frames and learned cubes per instance")
	fmt.Fprintf(w, "%-24s %7s %7s %12s\n", "instance", "frames", "cubes", "time")
	for _, p := range points {
		fmt.Fprintf(w, "%-24s %7d %7d %12s\n", p.Instance, p.Frames, p.Cubes, p.Time.Round(time.Millisecond))
	}
}

// Report renders everything into one text document, running every grid
// on workers workers (0 = GOMAXPROCS).
func Report(w io.Writer, suiteSize int, perRun time.Duration, workers int) error {
	suite, err := benchmarks.Suite(suiteSize)
	if err != nil {
		return err
	}
	names := EngineNames()

	fmt.Fprintln(w, RunConfigLine(workers))
	fmt.Fprintln(w)

	Table1(w, suite)
	fmt.Fprintln(w)

	records := RunSuite(suite, names, perRun, workers)
	Table2(w, records, names)
	fmt.Fprintln(w)

	safeOnly := filterInstances(suite, func(in benchmarks.Instance) bool {
		return in.Expected == engine.Safe && !in.Hard
	})
	Table3(w, RunAblation(safeOnly, perRun, workers))
	fmt.Fprintln(w)

	Table4(w, RunCircuits(benchmarks.Circuits(), 128))
	fmt.Fprintln(w)

	Fig1(w, records, names)
	fmt.Fprintln(w)
	Fig2(w, records, "ic3-icp", "bmc-icp", perRun.Seconds())
	fmt.Fprintln(w)

	small := filterInstances(suite, func(in benchmarks.Instance) bool {
		return in.Family == "poly" || in.Family == "logistic"
	})
	Fig3(w, EpsSweep(small, []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6}, perRun, workers))
	fmt.Fprintln(w)

	vehicles := filterInstances(suite, func(in benchmarks.Instance) bool {
		return in.Family == "vehicle"
	})
	Fig4(w, FrameGrowth(vehicles, perRun, workers))
	return nil
}

func filterInstances(in []benchmarks.Instance, keep func(benchmarks.Instance) bool) []benchmarks.Instance {
	var out []benchmarks.Instance
	for _, i := range in {
		if keep(i) {
			out = append(out, i)
		}
	}
	return out
}
