package main

import (
	"time"

	"icpic3/internal/bmc"
	"icpic3/internal/certify"
	"icpic3/internal/engine"
	"icpic3/internal/ic3icp"
	"icpic3/internal/kind"
	"icpic3/internal/ts"
)

// engineBudget bounds each engine run of the engine workloads.
const engineBudget = 10 * time.Second

// step is one engine run inside an op.  The engines are called exactly
// as a library user would: default options apart from the budget and the
// depth bounds the service also uses.
type step struct {
	layer      string // the engine's package; its span is layer + ".Check"
	unsafeOnly bool   // run only on instances labelled unsafe
	check      func(*ts.System) engine.Result
}

var (
	ic3Step = step{layer: "ic3icp", check: func(s *ts.System) engine.Result {
		return ic3icp.Check(s, ic3icp.Options{Budget: engine.Budget{Timeout: engineBudget}})
	}}
	kindStep = step{layer: "kind", check: func(s *ts.System) engine.Result {
		return kind.Check(s, kind.Options{MaxK: 24, Budget: engine.Budget{Timeout: engineBudget}})
	}}
	bmcStep = step{layer: "bmc", unsafeOnly: true, check: func(s *ts.System) engine.Result {
		return bmc.Check(s, bmc.Options{MaxDepth: 128, Budget: engine.Budget{Timeout: engineBudget}})
	}}
)

// workloadSteps is the engine sequence of each engine workload.
var workloadSteps = map[string][]step{
	"ic3-queries":   {ic3Step},
	"ic3-nonlinear": {ic3Step},
	"unroll":        {kindStep, bmcStep},
}

// ic3Counters maps ic3-icp Result.Stats keys to per-layer metric names.
var ic3Counters = map[string]string{
	"queries":              "ic3icp.queries",
	"pushAttempts":         "ic3icp.push_attempts",
	"pushSkippedTriggered": "ic3icp.push_skipped",
	"solverRebuilds":       "ic3icp.solver_rebuilds",
	"obligations":          "ic3icp.obligations",
	"frames":               "ic3icp.frames",
	"blockedCubes":         "ic3icp.blocked_cubes",
	"ctgBlocked":           "ic3icp.ctg_blocked",
	"widened":              "ic3icp.widened",
	"watchVisits":          "icp.watch_visits",
	"trailEventsSaved":     "icp.trail_events_saved",
	"prefixKeptLevels":     "icp.prefix_kept_levels",
	"litsMinimized":        "icp.lits_minimized",
	"clausesDeleted":       "icp.clauses_deleted",
	"tnfOpsPruned":         "tnf.ops_pruned",
	"consecCacheHits":      "memo.hits",
	"consecCacheMisses":    "memo.misses",
}

// opVerdict is one op's outcome against its label.
type opVerdict struct {
	solved      bool // some engine returned the label's verdict and certify accepted it
	wrong       bool // some engine returned the opposite decisive verdict
	uncertified int  // right verdicts that certify rejected
}

// runOp verifies one model: parse, then each step's engine run followed
// by certify.Check on its result.  counts accumulates layer counters.
func runOp(m model, steps []step, tr *tracer, op int, counts map[string]float64) (opVerdict, time.Duration, error) {
	t0 := time.Now()
	root := tr.begin("bench.op", op, 0)
	defer tr.end(root)
	sp := tr.begin("ts.Parse", op, root)
	sys, err := ts.Parse(m.source)
	tr.end(sp)
	if err != nil {
		return opVerdict{}, time.Since(t0), err
	}
	var v opVerdict
	for _, st := range steps {
		if st.unsafeOnly && m.expect != engine.Unsafe {
			continue
		}
		sp = tr.begin(st.layer+".Check", op, root)
		res := st.check(sys)
		tr.end(sp)
		sp = tr.begin("certify.Check", op, root)
		cerr := certify.Check(sys, res, certify.Options{})
		tr.end(sp)
		record(st.layer, res, counts)
		switch {
		case res.Verdict == engine.Unknown:
		case res.Verdict != m.expect:
			v.wrong = true
		case cerr != nil:
			v.uncertified++
		default:
			v.solved = true
		}
	}
	return v, time.Since(t0), nil
}

// record adds one engine result's work counters to counts.
func record(layer string, res engine.Result, counts map[string]float64) {
	switch layer {
	case "ic3icp":
		for key, name := range ic3Counters {
			counts[name] += float64(res.Stats[key])
		}
	case "kind", "bmc":
		counts[layer+".depth_sum"] += float64(res.Depth)
	}
}

// runEngines verifies the ops once each, in order, adding to o.  An op's
// latency is the fastest over the replays of a run.
func runEngines(in inputs, cfg config, o *outcome) {
	ops := in.ops
	steps := workloadSteps[cfg.workload]
	for i, m := range ops {
		o.attempted++
		v, lat, err := runOp(m, steps, cfg.tracer, o.replays*len(ops)+i+1, o.counts)
		o.observe(i, lat)
		switch {
		case err != nil:
			o.failed++
			o.errs = append(o.errs, m.name+": "+err.Error())
		case v.wrong:
			o.failed++
			o.wrong++
			o.errs = append(o.errs, m.name+": wrong verdict")
		case v.solved:
			o.solved++
		}
		o.uncertified += v.uncertified
	}
	o.replays++
}
