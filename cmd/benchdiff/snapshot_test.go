package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"icpic3/internal/engine"
	"icpic3/internal/harness"
)

// committedPairs are the committed before/after snapshot pairs; every
// one passed benchdiff when it was committed.  TestCommittedPairsPass is
// the one place they are diffed.
var committedPairs = [][2]string{
	{"BENCH_2026-08-06.json", "BENCH_2026-08-06-watched.json"},
	{"BENCH_2026-08-08.json", "BENCH_2026-08-08-triggered.json"},
	{"BENCH_2026-08-08-triggered.json", "BENCH_2026-08-08-retained.json"},
	{"BENCH_2026-10-16.json", "BENCH_2026-10-16-trig.json"},
	{"BENCH_2026-10-17.json", "BENCH_2026-10-17-guard.json"},
	{"BENCH_2026-10-17-prerevise.json", "BENCH_2026-10-17-revise.json"},
	{"BENCH_2026-10-17-prelean.json", "BENCH_2026-10-17-lean.json"},
	{"BENCH_2026-10-18-preconsec.json", "BENCH_2026-10-18-consec.json"},
	{"BENCH_2026-10-18-preexit.json", "BENCH_2026-10-18-exit.json"},
	{"BENCH_2026-10-18-precompile.json", "BENCH_2026-10-18-compile.json"},
}

// rawEngines is a snapshot's per-engine objects as plain JSON keys.
type rawEngines struct {
	Baseline, Parallel struct {
		Engines []map[string]json.RawMessage `json:"engines"`
	}
}

// TestCommittedSnapshotsRoundTrip checks that every committed snapshot
// reads its flat counter keys into the schema's counts, carries no key
// the schema does not know, and survives load → marshal → load.
func TestCommittedSnapshotsRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed snapshots found: %v", err)
	}
	// every key BenchEngine can write, with all counters nonzero and an
	// instance record
	all := harness.BenchEngine{Instances: []harness.BenchInstance{{Name: "x", Verdict: "safe"}}}
	for i := range all.Counts {
		all.Counts[i] = 1
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	var known map[string]json.RawMessage
	if err := json.Unmarshal(b, &known); err != nil {
		t.Fatal(err)
	}
	if len(known) != 8+len(engine.Counters) {
		t.Fatalf("BenchEngine writes %d keys, want 8 fixed + %d counters", len(known), len(engine.Counters))
	}

	for _, p := range paths {
		rep, err := load(p)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var raw rawEngines
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		legs := [][]harness.BenchEngine{rep.Baseline.Engines, rep.Parallel.Engines}
		for l, rawLeg := range [][]map[string]json.RawMessage{raw.Baseline.Engines, raw.Parallel.Engines} {
			for e, keys := range rawLeg {
				got := legs[l][e]
				for k := range keys {
					if _, ok := known[k]; !ok {
						t.Errorf("%s %s: key %q is neither a field nor a counter", p, got.Engine, k)
					}
				}
				for i, c := range engine.Counters {
					var want int64
					if v, ok := keys[c.Name()]; ok {
						if err := json.Unmarshal(v, &want); err != nil {
							t.Fatal(err)
						}
					}
					if got.Counts[i] != want {
						t.Errorf("%s %s: %s loaded as %d, file says %d", p, got.Engine, c.Name(), got.Counts[i], want)
					}
				}
			}
		}
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var again harness.BenchReport
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*rep, again) {
			t.Errorf("%s: load → marshal → load changed the report", p)
		}
	}
}

// TestCommittedPairsPass replays benchdiff's verdict on the committed
// snapshot pairs: none of them is a regression.
func TestCommittedPairsPass(t *testing.T) {
	for _, pair := range committedPairs {
		old, err := load(filepath.Join("..", "..", pair[0]))
		if err != nil {
			t.Fatal(err)
		}
		cur, err := load(filepath.Join("..", "..", pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		if diffRun("baseline", old.Baseline, cur.Baseline, 0.10) ||
			diffRun("parallel", old.Parallel, cur.Parallel, 0.10) ||
			diffScaling(old, cur, 0.10) {
			t.Errorf("%s -> %s flagged as a regression", pair[0], pair[1])
		}
	}
}
