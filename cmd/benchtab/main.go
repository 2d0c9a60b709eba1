// Command benchtab regenerates the tables and figures of the evaluation
// (DESIGN.md §5 / EXPERIMENTS.md) from the synthetic benchmark suite.
//
// Usage:
//
//	benchtab -all                 # everything (the full report)
//	benchtab -table 2 -budget 10s # just Table II with a 10s per-run budget
//	benchtab -fig 1               # just the cactus plot series
//	benchtab -json                # baseline-vs-parallel BENCH_<date>.json
//	benchtab -reuse               # certificate-reuse resubmission workload
//
// -workers bounds the suite-level worker pool (0 = GOMAXPROCS); record
// order and verdicts do not depend on it, only wall-clock does.
// -procs pins GOMAXPROCS for the whole run (0 = NumCPU), overriding the
// environment, so perf snapshots measure the machine and not whatever
// GOMAXPROCS the invoking shell happened to export; every text report
// and BENCH_<date>.json records the value in force.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/engine"
	"icpic3/internal/harness"
)

func main() {
	var (
		all     = flag.Bool("all", false, "produce the full report")
		table   = flag.Int("table", 0, "table to produce (1-4)")
		fig     = flag.Int("fig", 0, "figure to produce (1-4)")
		budget  = flag.Duration("budget", 20*time.Second, "per-run budget")
		size    = flag.Int("size", 3, "instances per family and polarity")
		csvOut  = flag.Bool("csv", false, "emit CSV instead of text (tables 2, figures 2-3)")
		jsonOut = flag.Bool("json", false, "run the suite at workers=1 and workers=N and write BENCH_<date>.json")
		outFile = flag.String("o", "", "output file for -json (default BENCH_<date>.json)")
		workers = flag.Int("workers", 0, "suite-level worker pool (0 = GOMAXPROCS, 1 = sequential)")
		procs   = flag.Int("procs", 0, "GOMAXPROCS for the run (0 = NumCPU; overrides the environment)")
		reuseWL = flag.Bool("reuse", false, "run the certificate-reuse resubmission workload; exit 1 on a verdict mismatch or a missed lookup")
	)
	flag.Parse()

	if *procs <= 0 {
		*procs = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(*procs)

	w := os.Stdout
	if *reuseWL {
		suite, err := benchmarks.Suite(*size)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rep, err := harness.ReuseBench(suite, *budget)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintln(w, harness.RunConfigLine(*workers))
		harness.WriteReuseReport(w, rep)
		if rep.Mismatches > 0 || rep.Hits < rep.Proved {
			fmt.Fprintln(os.Stderr, "benchtab: reuse workload failed (verdict mismatch or missed lookup)")
			os.Exit(1)
		}
		return
	}
	if *jsonOut {
		date := time.Now().Format("2006-01-02")
		rep, err := harness.BenchJSON(*size, *budget, *workers, date)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		path := *outFile
		if path == "" {
			path = fmt.Sprintf("BENCH_%s.json", date)
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s (gomaxprocs %d, baseline %.2fs, parallel %.2fs @ %d workers, speedup %.2fx)\n",
			path, rep.GoMaxProcs, rep.Baseline.WallSec, rep.Parallel.WallSec, rep.Parallel.Workers, rep.SpeedupX)
		return
	}
	if *all {
		if err := harness.Report(w, *size, *budget, *workers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	suite, err := benchmarks.Suite(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	names := harness.EngineNames()

	if (*table != 0 || *fig != 0) && !*csvOut {
		fmt.Fprintln(w, harness.RunConfigLine(*workers))
	}
	switch {
	case *table == 1:
		harness.Table1(w, suite)
	case *table == 2:
		records := harness.RunSuite(suite, names, *budget, *workers)
		if *csvOut {
			if err := harness.WriteSummaryCSV(w, records, names); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		harness.Table2(w, records, names)
	case *table == 3:
		safe := filter(suite, func(in benchmarks.Instance) bool {
			return in.Expected == engine.Safe && !in.Hard
		})
		harness.Table3(w, harness.RunAblation(safe, *budget, *workers))
	case *table == 4:
		harness.Table4(w, harness.RunCircuits(benchmarks.Circuits(), 128))
	case *fig == 1:
		harness.Fig1(w, harness.RunSuite(suite, names, *budget, *workers), names)
	case *fig == 2:
		records := harness.RunSuite(suite, names, *budget, *workers)
		if *csvOut {
			if err := harness.WriteScatterCSV(w, records, "ic3-icp", "bmc-icp", budget.Seconds()); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		harness.Fig2(w, records, "ic3-icp", "bmc-icp", budget.Seconds())
	case *fig == 3:
		small := filter(suite, func(in benchmarks.Instance) bool {
			return in.Family == "poly" || in.Family == "logistic"
		})
		points := harness.EpsSweep(small, []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6}, *budget, *workers)
		if *csvOut {
			if err := harness.WriteEpsCSV(w, points); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		harness.Fig3(w, points)
	case *fig == 4:
		vehicles := filter(suite, func(in benchmarks.Instance) bool { return in.Family == "vehicle" })
		harness.Fig4(w, harness.FrameGrowth(vehicles, *budget, *workers))
	default:
		fmt.Fprintln(os.Stderr, "benchtab: pass -all, -table N or -fig N")
		flag.PrintDefaults()
		os.Exit(2)
	}
}

func filter(in []benchmarks.Instance, keep func(benchmarks.Instance) bool) []benchmarks.Instance {
	var out []benchmarks.Instance
	for _, i := range in {
		if keep(i) {
			out = append(out, i)
		}
	}
	return out
}
