package main

import (
	"reflect"
	"sort"
	"strconv"
	"testing"

	"icpic3/internal/engine"
	"icpic3/internal/ts"
)

func mustCorpus(t *testing.T) []instance {
	t.Helper()
	corpus, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func mustGenerate(t *testing.T, workload string, seed int64) inputs {
	t.Helper()
	in, err := generate(workload, mustCorpus(t), seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// allModels lists the generated models in consumption order.
func allModels(in inputs) []model {
	out := append([]model(nil), in.ops...)
	for _, j := range in.jobs {
		out = append(out, j.model)
	}
	return out
}

func TestCorpusStatesBoundedProperties(t *testing.T) {
	families := map[string]int{}
	for _, in := range mustCorpus(t) {
		families[in.family]++
		if _, err := ts.Parse(in.source); err != nil {
			t.Errorf("%s: %v", in.name, err)
		}
		if got := propLine.FindStringSubmatch(in.source); got == nil || got[1] != in.propVar {
			t.Errorf("%s: no \"prop %s <= c\" line", in.name, in.propVar)
		}
	}
	for _, f := range []string{"poly", "logistic", "vehicle", "thermostat", "pendulum", "counternl", "frozen"} {
		if families[f] == 0 {
			t.Errorf("corpus has no %s instance", f)
		}
	}
	if len(families) != 7 {
		t.Errorf("corpus families = %v, want the seven benchmark families", families)
	}
}

func TestMutationKeepsLabel(t *testing.T) {
	bases := map[string]instance{}
	for _, in := range mustCorpus(t) {
		bases[in.name] = in
	}
	for _, w := range []string{"ic3-queries", "ic3-nonlinear", "unroll", "serve"} {
		for _, m := range allModels(mustGenerate(t, w, 7)) {
			b := bases[m.name]
			got := propLine.FindStringSubmatch(m.source)
			if got == nil || got[1] != b.propVar {
				t.Fatalf("%s/%s: property line lost: %q", w, m.name, m.source)
			}
			bound, err := strconv.ParseFloat(got[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			if m.expect != b.expect {
				t.Errorf("%s/%s: label %v, base %v", w, m.name, m.expect, b.expect)
			}
			// loosening keeps Safe, tightening keeps Unsafe
			if b.expect == engine.Safe && bound < b.bound || b.expect == engine.Unsafe && bound > b.bound {
				t.Errorf("%s/%s (%v): bound %g moved the wrong way from %g", w, m.name, b.expect, bound, b.bound)
			}
		}
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	for _, w := range []string{"ic3-queries", "ic3-nonlinear", "unroll", "serve"} {
		a, b := mustGenerate(t, w, 3), mustGenerate(t, w, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 3 generated two different input sets", w)
		}
		if reflect.DeepEqual(a, mustGenerate(t, w, 4)) {
			t.Errorf("%s: seeds 3 and 4 generated the same inputs", w)
		}
	}
	// ic3-nonlinear: the seed changes the order, never the set
	sorted := func(in inputs) []string {
		var s []string
		for _, m := range in.ops {
			s = append(s, m.source)
		}
		sort.Strings(s)
		return s
	}
	if a, b := sorted(mustGenerate(t, "ic3-nonlinear", 3)), sorted(mustGenerate(t, "ic3-nonlinear", 4)); !reflect.DeepEqual(a, b) {
		t.Error("ic3-nonlinear input set depends on the seed")
	}
}

func TestIC3StatsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ic3-icp 40 times")
	}
	sample := mustGenerate(t, "ic3-queries", 1).ops[:20]
	stats := func() []map[string]int64 {
		var out []map[string]int64
		for _, m := range sample {
			sys, err := ts.Parse(m.source)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ic3Step.check(sys).Stats)
		}
		return out
	}
	if a, b := stats(), stats(); !reflect.DeepEqual(a, b) {
		t.Error("ic3-icp Result.Stats differ between two runs of the same 20 ops")
	}
}
