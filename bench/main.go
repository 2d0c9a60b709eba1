// Command bench is the repository benchmark: it generates a seeded
// workload from the frozen model corpus, drives the verifier's layers
// through their public entry points for a fixed time, checks every
// verdict against its label and certifies it, and prints the metrics as
// one JSON object on the last line of standard output.
//
//	bash bench/run.sh --workload ic3-queries --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every layer call and prints the per-layer metrics instead (--spans FILE
// also writes the spans out).  See README.md for the workloads and the
// meaning of each metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration // how long replays are started for
	tracer   *tracer       // nil = tracing off
	maxOps   int           // > 0 caps the ops of each replay (tests only)
}

// outcome is what a run measured, summed over its replays.  Counts cover
// every op of every replay; best holds each op's fastest latency.
type outcome struct {
	attempted, solved, wrong, failed, uncertified int

	replays int
	elapsed time.Duration // all replays
	best    []time.Duration
	lagMax  time.Duration // serve: latest submission relative to its due time

	counts      map[string]float64 // layer counters
	queued, run []time.Duration    // serve: queue wait and run time of jobs that ran
	errs        []string
}

func newOutcome() outcome {
	return outcome{counts: map[string]float64{}}
}

// observe records op i's latency in the current replay.
func (o *outcome) observe(i int, d time.Duration) {
	if i == len(o.best) {
		o.best = append(o.best, d)
	} else if d < o.best[i] {
		o.best[i] = d
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics, in the order of BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"solved_frac", "ratio"},
	{"lat_p50_ms", "ms"},
	{"lat_geomean_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics, in the order of BENCHMARK.json.
// Counts are per op; a layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"ic3icp.queries", "count/op"},
	{"ic3icp.memo_hit_ratio", "ratio"},
	{"ic3icp.push_attempts", "count/op"},
	{"ic3icp.push_skipped", "count/op"},
	{"ic3icp.solver_rebuilds", "count/op"},
	{"ic3icp.us_per_query", "us"},
	{"icp.watch_visits", "count/op"},
	{"icp.trail_events_saved", "count/op"},
	{"icp.prefix_kept_levels", "count/op"},
	{"icp.lits_minimized", "count/op"},
	{"icp.clauses_deleted", "count/op"},
	{"ic3icp.obligations", "count/op"},
	{"ic3icp.frames", "count/op"},
	{"ic3icp.blocked_cubes", "count/op"},
	{"ic3icp.ctg_blocked", "count/op"},
	{"ic3icp.widened", "count/op"},
	{"ic3icp.self_ms", "ms/op"},
	{"certify.self_ms", "ms/op"},
	{"certify.share", "ratio"},
	{"certify.rejected", "count/op"},
	{"kind.self_ms", "ms/op"},
	{"bmc.self_ms", "ms/op"},
	{"kind.depth_sum", "count/op"},
	{"bmc.depth_sum", "count/op"},
	{"service.queued_ms_p50", "ms"},
	{"service.queued_ms_p99", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.run_ms_p99", "ms"},
	{"portfolio.won_ic3", "count/op"},
	{"portfolio.won_bmc", "count/op"},
	{"portfolio.won_kind", "count/op"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced", "count/op"},
	{"service.cert_failed", "count/op"},
	{"service.rejected", "count/op"},
	{"reuse.hit_ratio", "ratio"},
	{"reuse.clauses_seeded", "count/op"},
	{"reuse.clauses_dropped", "count/op"},
	{"ts.parse_ms", "ms"},
	{"tnf.ops_pruned", "count/op"},
	{"bench.lat_p95_ms", "ms"},
	{"bench.gen_lag_max_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one workload and prints its report.  It
// returns the process exit code: 0 on success, 1 when a verdict was wrong
// or the run could not be measured, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "ic3-queries | ic3-nonlinear | unroll | serve")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "how long to start ops for")
	trace := fs.Int("trace", 0, "1 = record spans and print the per-layer metrics")
	spansFile := fs.String("spans", "", "with --trace 1, write the spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadSteps[*workload]; !ok && *workload != "serve" {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1\n")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second))}
	if *trace == 1 {
		cfg.tracer = newTracer()
	}
	rep, o, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for _, e := range o.errs {
		fmt.Fprintf(stderr, "bench: %s\n", e)
	}
	if *spansFile != "" && cfg.tracer != nil {
		if err := writeSpans(*spansFile, cfg.tracer.snapshot()); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s seed %d: %d replays of %d ops in %.1fs: %d solved, %d uncertified, %d failed (%d wrong)\n",
		cfg.workload, cfg.seed, o.replays, len(o.best), o.elapsed.Seconds(), o.solved, o.uncertified, o.failed, o.wrong)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// measure sets up and replays the workload's inputs until the window has
// elapsed, then assembles the report.  Set-up is repeated after every
// replay, so that its median samples the same stretch of time as the ops.
func measure(cfg config) (report, outcome, error) {
	var cost time.Duration
	if cfg.tracer != nil {
		cost = spanCost()
	}
	in, d, err := setUp(cfg)
	if err != nil {
		return report{}, outcome{}, fmt.Errorf("set-up: %w", err)
	}
	if cfg.maxOps > 0 {
		in.ops = in.ops[:min(cfg.maxOps, len(in.ops))]
		in.jobs = in.jobs[:min(cfg.maxOps, len(in.jobs))]
	}
	setup := []time.Duration{d}
	o := newOutcome()
	start := time.Now()
	for o.replays == 0 || o.elapsed < cfg.window {
		if cfg.workload == "serve" {
			runServe(in, cfg, &o)
		} else {
			runEngines(in, cfg, &o)
		}
		o.elapsed = time.Since(start)
		if _, d, err = setUp(cfg); err != nil {
			return report{}, outcome{}, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, d)
	}
	return buildReport(o, setup, cfg.tracer, cost), o, nil
}

// buildReport turns a run's outcome into its report: the end-to-end
// metrics when tr is nil, the per-layer metrics otherwise.  Any wrong
// verdict makes the report incorrect.
func buildReport(o outcome, setup []time.Duration, tr *tracer, spanCost time.Duration) report {
	rep := report{Correct: o.wrong == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if tr == nil {
		values := map[string]float64{
			"setup_s":        percentile(setup, 50).Seconds(),
			"solved_frac":    float64(o.solved) / float64(o.attempted),
			"lat_p50_ms":     ms(percentile(o.best, 50)),
			"lat_geomean_ms": ms(geomean(o.best)),
			"peak_rss_mb":    peakRSSMB(),
		}
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{values[m.name], m.unit}
		}
		return rep
	}
	values := layerMetrics(o, tr.snapshot(), spanCost)
	for _, m := range perLayer {
		rep.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return rep
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(o outcome, spans []span, spanCost time.Duration) map[string]float64 {
	v := map[string]float64{}
	ops := float64(o.attempted)
	for _, m := range perLayer {
		if m.unit == "count/op" {
			v[m.name] = o.counts[m.name] / ops
		}
	}
	v["certify.rejected"] = float64(o.uncertified) / ops
	v["service.cache_hit_ratio"] = o.counts["service.cache_hits"] / ops
	v["ic3icp.memo_hit_ratio"] = ratio(o.counts["memo.hits"], o.counts["memo.hits"]+o.counts["memo.misses"])
	v["reuse.hit_ratio"] = ratio(o.counts["reuse.hits"], o.counts["reuse.lookups"])
	v["service.queued_ms_p50"] = ms(percentile(o.queued, 50))
	v["service.queued_ms_p99"] = ms(percentile(o.queued, 99))
	v["service.run_ms_p50"] = ms(percentile(o.run, 50))
	v["service.run_ms_p99"] = ms(percentile(o.run, 99))
	v["bench.lat_p95_ms"] = ms(percentile(o.best, 95))
	v["bench.gen_lag_max_ms"] = ms(o.lagMax)

	self, count := selfTimes(spans)
	for _, layer := range []string{"ic3icp", "certify", "kind", "bmc"} {
		v[layer+".self_ms"] = ms(self[layer+".Check"]) / ops
	}
	var opTime time.Duration
	opSpans := 0
	for _, s := range spans {
		if s.Name == "bench.op" {
			opTime += time.Duration(s.End - s.Start)
		}
		if s.Op != 0 {
			opSpans++
		}
	}
	v["certify.share"] = ratio(float64(self["certify.Check"]), float64(opTime))
	v["ic3icp.us_per_query"] = ratio(float64(self["ic3icp.Check"].Microseconds()), o.counts["ic3icp.queries"])
	v["ts.parse_ms"] = ratio(ms(self["ts.Parse"]), float64(count["ts.Parse"]))
	v["bench.trace_overhead_frac"] = float64(spanCost) * float64(opSpans) / float64(o.elapsed)
	return v
}

// percentile returns the p-th percentile of xs, interpolating linearly
// between the closest ranks (0 for no samples).
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r := p / 100 * float64(len(s)-1)
	i := int(r)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + time.Duration((r-float64(i))*float64(s[i+1]-s[i]))
}

// geomean returns the geometric mean of xs (0 for no samples).
func geomean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(float64(max(x, 1)))
	}
	return time.Duration(math.Exp(sum / float64(len(xs))))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
