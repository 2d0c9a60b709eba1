// benchdiff compares two BENCH_<date>.json snapshots (see make
// bench-json) and prints per-run and per-engine deltas: solved counts,
// wall-clock, solved/sec, every work counter of engine.Counters, and
// worker scaling (speedup_x).  It exits 1 when the new snapshot
// regresses — fewer instances solved, any wrong verdict appearing, a
// per-engine solved/sec drop beyond the tolerance, a counter growing
// beyond its schema Gate, or a same-config speedup_x drop beyond the
// tolerance — so CI and PR workflows can gate on `make bench-diff`.
//
// Work counters are machine-independent, so a gated counter (solver
// queries) catches algorithmic regressions that wall-clock jitter on a
// busy CI box would mask.  A counter that is zero in the old snapshot
// (e.g. one written before the counter existed) is never gated.
//
// Usage:
//
//	benchdiff [-tolerance 0.10] OLD.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"icpic3/internal/engine"
	"icpic3/internal/harness"
)

func load(path string) (*harness.BenchReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep harness.BenchReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// minGateSec is the minimum per-engine measured time (in either
// snapshot) for the solved/sec gate to be meaningful.
const minGateSec = 1.0

// engineMap indexes a run's engine slices by name.
func engineMap(r harness.BenchRun) map[string]harness.BenchEngine {
	m := make(map[string]harness.BenchEngine, len(r.Engines))
	for _, e := range r.Engines {
		m[e.Engine] = e
	}
	return m
}

// diffRun prints the leg-level comparison and reports regressions.
// Each work counter nonzero in either snapshot gets a line; one with a
// schema Gate is a regression when it grows by more than that fraction
// over a nonzero old value.
func diffRun(label string, old, new harness.BenchRun, tol float64) (regressed bool) {
	fmt.Printf("%s: solved %d -> %d (%+d), unknown %d -> %d, wrong %d -> %d, wall %.2fs -> %.2fs (%+.1f%%)\n",
		label, old.Solved, new.Solved, new.Solved-old.Solved,
		old.Unknown, new.Unknown, old.Wrong, new.Wrong,
		old.WallSec, new.WallSec, pct(new.WallSec, old.WallSec))
	if new.Solved < old.Solved {
		fmt.Printf("  REGRESSION: %s solves fewer instances\n", label)
		regressed = true
	}
	if new.Wrong > old.Wrong {
		fmt.Printf("  REGRESSION: %s has new wrong verdicts\n", label)
		regressed = true
	}
	oldByName := engineMap(old)
	// iterate in the new run's slice order (stable across runs), not map order
	for _, ne := range new.Engines {
		oe, ok := oldByName[ne.Engine]
		if !ok {
			fmt.Printf("  %-12s new engine: solved %d, %.2f solved/sec\n",
				ne.Engine, ne.SolvedSafe+ne.SolvedUnsaf, ne.SolvedPerSec)
			continue
		}
		oldSolved := oe.SolvedSafe + oe.SolvedUnsaf
		newSolved := ne.SolvedSafe + ne.SolvedUnsaf
		fmt.Printf("  %-12s solved %d -> %d, solved/sec %.2f -> %.2f (%+.1f%%), wrong %d -> %d\n",
			ne.Engine, oldSolved, newSolved,
			oe.SolvedPerSec, ne.SolvedPerSec, pct(ne.SolvedPerSec, oe.SolvedPerSec),
			oe.Wrong, ne.Wrong)
		if ne.Wrong > oe.Wrong {
			fmt.Printf("  REGRESSION: %s wrong verdicts increased\n", ne.Engine)
			regressed = true
		}
		if newSolved < oldSolved {
			fmt.Printf("  REGRESSION: %s solves fewer instances\n", ne.Engine)
			regressed = true
		}
		if oe.SolvedPerSec > 0 && ne.SolvedPerSec < oe.SolvedPerSec*(1-tol) {
			// a rate computed over a sub-second engine-time sample is
			// dominated by scheduler jitter (tens of ms flip the gate);
			// track it, gate only rates measured over >= 1s of work
			if oe.EngineSec < minGateSec && ne.EngineSec < minGateSec {
				fmt.Printf("  (%s engine time < %.0fs in both snapshots; throughput tracked, not gated)\n",
					ne.Engine, minGateSec)
			} else {
				fmt.Printf("  REGRESSION: %s solved/sec dropped more than %.0f%%\n", ne.Engine, tol*100)
				regressed = true
			}
		}
		for i, c := range engine.Counters {
			o, n := oe.Counts[i], ne.Counts[i]
			if o == 0 && n == 0 {
				continue
			}
			delta := "old zero, not gated"
			if o > 0 {
				delta = fmt.Sprintf("%+.1f%%", pct(float64(n), float64(o)))
			}
			fmt.Printf("  %-12s %s %d -> %d (%s)\n", ne.Engine, c.Name(), o, n, delta)
			if c.Gate > 0 && o > 0 && float64(n) > float64(o)*(1+c.Gate) {
				fmt.Printf("  REGRESSION: %s %s grew more than %.0f%%\n", ne.Engine, c.Name(), c.Gate*100)
				regressed = true
			}
		}
	}
	return regressed
}

// diffScaling tracks worker scaling (speedup_x = baseline wall /
// parallel wall) across snapshots.  A drop beyond the tolerance is a
// regression, but only when both snapshots ran at the same gomaxprocs
// and worker count — across different machines or pool sizes the ratio
// measures the config change, not the code — and with more than one
// worker and proc (otherwise the parallel leg repeats the baseline).
func diffScaling(old, cur *harness.BenchReport, tol float64) (regressed bool) {
	fmt.Printf("scaling: speedup %.2fx -> %.2fx (gomaxprocs %d -> %d, workers %d -> %d)\n",
		old.SpeedupX, cur.SpeedupX, old.GoMaxProcs, cur.GoMaxProcs,
		old.Parallel.Workers, cur.Parallel.Workers)
	if old.GoMaxProcs != cur.GoMaxProcs || old.Parallel.Workers != cur.Parallel.Workers {
		fmt.Println("  (run configs differ; speedup tracked but not gated)")
		return false
	}
	if cur.GoMaxProcs == 1 || cur.Parallel.Workers == 1 {
		fmt.Println("  (single worker; speedup not gated)")
		return false
	}
	if old.SpeedupX > 0 && cur.SpeedupX < old.SpeedupX*(1-tol) {
		fmt.Printf("  REGRESSION: worker scaling dropped more than %.0f%%\n", tol*100)
		return true
	}
	return false
}

// pct is the relative change of b vs a in percent (0 when a is 0).
func pct(b, a float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}

func main() {
	tol := flag.Float64("tolerance", 0.10, "allowed relative solved/sec drop per engine before flagging a regression")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tolerance 0.10] OLD.json NEW.json")
		os.Exit(2)
	}
	old, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fmt.Printf("benchdiff %s (%s) -> %s (%s), %d -> %d instances\n",
		flag.Arg(0), old.Date, flag.Arg(1), cur.Date, old.Instances, cur.Instances)
	regressed := diffRun("baseline", old.Baseline, cur.Baseline, *tol)
	if diffRun("parallel", old.Parallel, cur.Parallel, *tol) {
		regressed = true
	}
	if diffScaling(old, cur, *tol) {
		regressed = true
	}
	if regressed {
		os.Exit(1)
	}
}
