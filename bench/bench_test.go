package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"icpic3/internal/engine"
)

func TestWrongVerdictFailsTheRun(t *testing.T) {
	in := mustGenerate(t, "ic3-queries", 1)
	m := in.ops[0]
	cfg := config{workload: "ic3-queries", seed: 1}
	for _, flip := range []bool{false, true} {
		if flip {
			m.expect = map[engine.Verdict]engine.Verdict{engine.Safe: engine.Unsafe, engine.Unsafe: engine.Safe}[m.expect]
		}
		o := newOutcome()
		runEngines(inputs{ops: []model{m}}, cfg, &o)
		rep := buildReport(o, []time.Duration{time.Millisecond}, nil, 0)
		if rep.Correct == flip || (rep.Failed == 1) != flip || (o.wrong == 1) != flip {
			t.Errorf("label flipped=%v: correct=%v failed=%d wrong=%d", flip, rep.Correct, rep.Failed, o.wrong)
		}
	}
}

// TestSmoke runs every workload briefly, traced and untraced, and checks
// that each emits exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json declares %d workloads, want 4", len(decl.Workloads))
	}
	for _, w := range decl.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 1, window: 300 * time.Millisecond, maxOps: 2}
			want := decl.EndToEnd
			if traced {
				cfg.tracer = newTracer()
				want = decl.PerLayer
			}
			rep, _, err := measure(cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}
