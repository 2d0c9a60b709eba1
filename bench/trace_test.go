package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// two overlapping children cover [10, 40); one sticks out past the
		// parent's end and counts only up to it
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},
	}
	self, count := selfTimes(spans)
	want := map[string]time.Duration{"root": 100 - 30 - 10, "a": 20 + 20 - 10, "b": 30, "c": 10}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %d, want %d", name, self[name], d)
		}
	}
	if count["a"] != 2 {
		t.Errorf("count[a] = %d, want 2", count["a"])
	}
}

func TestSpansOfAnOpShareItsID(t *testing.T) {
	for _, w := range []string{"unroll", "serve"} {
		tr := newTracer()
		cfg := config{workload: w, seed: 1, window: 200 * time.Millisecond, tracer: tr, maxOps: 4}
		if _, _, err := measure(cfg); err != nil {
			t.Fatal(err)
		}
		spans := tr.snapshot()
		ops := map[int]bool{}
		for _, s := range spans {
			if s.End < s.Start {
				t.Fatalf("%s: span %+v ends before it starts", w, s)
			}
			if s.Parent == 0 {
				continue
			}
			if p := spans[s.Parent-1]; p.Op != s.Op {
				t.Errorf("%s: span %s of op %d has parent %s of op %d", w, s.Name, s.Op, p.Name, p.Op)
			}
			ops[s.Op] = true
		}
		if len(ops) < 2 {
			t.Errorf("%s: spans cover %d ops, want every op", w, len(ops))
		}
	}
}

func TestTracingOffRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", 1, 0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	tr.end(1)
	cfg := config{workload: "ic3-queries", seed: 1, maxOps: 2}
	if _, _, err := measure(cfg); err != nil {
		t.Fatal(err)
	}
	if spans := cfg.tracer.snapshot(); spans != nil {
		t.Errorf("tracing off recorded %d spans", len(spans))
	}
}
