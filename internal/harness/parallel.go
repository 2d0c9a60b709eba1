// Bounded-parallel execution of the evaluation grids.  Every Run*
// function assigns grid cell i to slot i of a pre-sized result slice,
// so the record order is exactly the sequential iteration order no
// matter how the scheduler interleaves the workers; only wall-clock
// changes with the worker count.
package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/engine"
	"icpic3/internal/runner"
)

// forEachParallel runs f(0..n-1) on a bounded worker pool.  workers <= 0
// means GOMAXPROCS; the count is capped at n; one worker degenerates to
// a plain loop.  f must confine its writes to index-owned slots.
func forEachParallel(n, workers int, f func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Each cell runs under engine.GuardGo in both the serial and the
	// parallel path: a panicking engine run costs its own grid cell (the
	// slot keeps its zero record), never the whole evaluation.
	if workers <= 1 {
		for i := 0; i < n; i++ {
			i := i
			engine.GuardGo("harness.forEachParallel", nil, func() { f(i) })
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				engine.GuardGo("harness.forEachParallel", nil, func() { f(i) })
			}
		}()
	}
	wg.Wait()
}

// RunSuiteWorkers is RunSuite with an explicit worker count: the
// (instance, engine) grid fans out over the pool, one engine run per
// cell, and the records come back in instance-major order regardless of
// workers.  The engines themselves are sequential; the grid is the
// parallelism axis.
func RunSuiteWorkers(instances []benchmarks.Instance, names []string, perRun time.Duration, workers int) []RunRecord {
	out := make([]RunRecord, len(instances)*len(names))
	forEachParallel(len(out), workers, func(i int) {
		in := instances[i/len(names)]
		en := names[i%len(names)]
		spec := suiteSpec
		spec.Engine, spec.Budget = en, engine.Budget{Timeout: perRun}
		res := runner.Check(in.Sys, spec)
		out[i] = RunRecord{
			Instance: in.Name, Family: in.Family, Engine: en,
			Expected: in.Expected, Result: res,
		}
	})
	return out
}

// RunAblationWorkers is RunAblation with an explicit worker count; the
// (mode, instance) grid fans out over the pool.
func RunAblationWorkers(instances []benchmarks.Instance, perRun time.Duration, workers int) map[string][]RunRecord {
	modes := GenModes()
	flat := make([]RunRecord, len(modes)*len(instances))
	forEachParallel(len(flat), workers, func(i int) {
		mode := modes[i/len(instances)]
		in := instances[i%len(instances)]
		res := runner.Check(in.Sys, runner.Spec{
			Engine: "ic3", Generalize: mode.String(),
			Budget: engine.Budget{Timeout: perRun},
		})
		flat[i] = RunRecord{
			Instance: in.Name, Family: in.Family, Engine: mode.String(),
			Expected: in.Expected, Result: res,
		}
	})
	out := map[string][]RunRecord{}
	for m, mode := range modes {
		out[mode.String()] = flat[m*len(instances) : (m+1)*len(instances)]
	}
	return out
}

// EpsSweepWorkers is EpsSweep with an explicit worker count; the
// (eps, instance) grid fans out over the pool and is reduced per eps in
// instance order.
func EpsSweepWorkers(instances []benchmarks.Instance, epss []float64, perRun time.Duration, workers int) []EpsPoint {
	flat := make([]engine.Result, len(epss)*len(instances))
	forEachParallel(len(flat), workers, func(i int) {
		eps := epss[i/len(instances)]
		in := instances[i%len(instances)]
		flat[i] = runner.Check(in.Sys, runner.Spec{
			Engine: "ic3", Eps: eps, Budget: engine.Budget{Timeout: perRun},
		})
	})
	out := make([]EpsPoint, 0, len(epss))
	for e, eps := range epss {
		pt := EpsPoint{Eps: eps}
		for j, in := range instances {
			res := flat[e*len(instances)+j]
			pt.Time += res.Runtime
			if res.Verdict == in.Expected {
				pt.Solved++
			} else {
				pt.Unknown++
			}
		}
		out = append(out, pt)
	}
	return out
}

// FrameGrowthWorkers is FrameGrowth with an explicit worker count.
func FrameGrowthWorkers(instances []benchmarks.Instance, perRun time.Duration, workers int) []FramePoint {
	out := make([]FramePoint, len(instances))
	forEachParallel(len(out), workers, func(i int) {
		in := instances[i]
		res := runner.Check(in.Sys, runner.Spec{Engine: "ic3", Budget: engine.Budget{Timeout: perRun}})
		out[i] = FramePoint{
			Instance: in.Name,
			Frames:   res.Depth,
			Cubes:    res.Stats["blockedCubes"],
			Time:     res.Runtime,
		}
	})
	return out
}
