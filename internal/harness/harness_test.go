package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/engine"
)

func smallSuite() []benchmarks.Instance {
	return []benchmarks.Instance{
		benchmarks.Must(benchmarks.Poly(true, 0)),
		benchmarks.Must(benchmarks.Poly(false, 0)),
		benchmarks.Must(benchmarks.Logistic(true, 0)),
		benchmarks.Must(benchmarks.Logistic(false, 0)),
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, smallSuite())
	out := buf.String()
	if !strings.Contains(out, "poly") || !strings.Contains(out, "logistic") {
		t.Errorf("Table1 output:\n%s", out)
	}
	if !strings.Contains(out, "Table I") {
		t.Error("missing title")
	}
}

func TestRunSuiteAndTable2(t *testing.T) {
	records := RunSuite(smallSuite(), EngineNames(), 20*time.Second, 0)
	if len(records) != 4*3 {
		t.Fatalf("records = %d", len(records))
	}
	for _, r := range records {
		if r.Wrong() {
			t.Errorf("WRONG VERDICT: %s on %s: got %v want %v",
				r.Engine, r.Instance, r.Result.Verdict, r.Expected)
		}
	}
	// every unsafe instance solved by bmc
	for _, r := range records {
		if r.Engine == "bmc-icp" && r.Expected == engine.Unsafe && !r.Correct() {
			t.Errorf("bmc missed %s: %v (%s)", r.Instance, r.Result.Verdict, r.Result.Note)
		}
	}
	var buf bytes.Buffer
	Table2(&buf, records, EngineNames())
	if !strings.Contains(buf.String(), "ic3-icp") {
		t.Errorf("Table2 output:\n%s", buf.String())
	}
	for _, c := range engine.Counters {
		if !strings.Contains(buf.String(), " "+c.Name()) {
			t.Errorf("Table2 has no %s column:\n%s", c.Name(), buf.String())
		}
	}
}

func TestAblationAndTable3(t *testing.T) {
	insts := []benchmarks.Instance{benchmarks.Must(benchmarks.Poly(true, 0))}
	ab := RunAblation(insts, 5*time.Second, 0)
	if len(ab) != 3 {
		t.Fatalf("ablation modes = %d", len(ab))
	}
	for mode, recs := range ab {
		for _, r := range recs {
			if r.Wrong() {
				t.Errorf("mode %s wrong verdict on %s", mode, r.Instance)
			}
		}
	}
	var buf bytes.Buffer
	Table3(&buf, ab)
	if !strings.Contains(buf.String(), "core+widen") {
		t.Errorf("Table3 output:\n%s", buf.String())
	}
}

func TestCircuitsAndTable4(t *testing.T) {
	circuits := benchmarks.Circuits()[:4]
	records := RunCircuits(circuits, 64)
	if len(records) != 8 {
		t.Fatalf("records = %d", len(records))
	}
	var buf bytes.Buffer
	Table4(&buf, records)
	if !strings.Contains(buf.String(), "ic3-bool") || !strings.Contains(buf.String(), "bmc-sat") {
		t.Errorf("Table4 output:\n%s", buf.String())
	}
}

func TestFigures(t *testing.T) {
	records := RunSuite(smallSuite(), EngineNames(), 20*time.Second, 0)

	series := CactusSeries(records, EngineNames())
	if len(series) != 3 {
		t.Fatalf("cactus series = %d", len(series))
	}
	var buf bytes.Buffer
	Fig1(&buf, records, EngineNames())
	if !strings.Contains(buf.String(), "cactus") {
		t.Error("Fig1 title")
	}

	pts := ScatterSeries(records, "ic3-icp", "bmc-icp", 10)
	if len(pts) != 4 {
		t.Fatalf("scatter points = %d", len(pts))
	}
	buf.Reset()
	Fig2(&buf, records, "ic3-icp", "bmc-icp", 10)
	if !strings.Contains(buf.String(), "scatter") {
		t.Error("Fig2 title")
	}

	sweep := EpsSweep(smallSuite()[:1], []float64{1e-3, 1e-5}, 10*time.Second, 0)
	if len(sweep) != 2 {
		t.Fatalf("sweep points = %d", len(sweep))
	}
	buf.Reset()
	Fig3(&buf, sweep)
	if !strings.Contains(buf.String(), "sweep") {
		t.Error("Fig3 title")
	}

	fg := FrameGrowth(smallSuite()[:2], 10*time.Second, 0)
	if len(fg) != 2 {
		t.Fatalf("frame growth points = %d", len(fg))
	}
	buf.Reset()
	Fig4(&buf, fg)
	if !strings.Contains(buf.String(), "frames") {
		t.Error("Fig4 title")
	}
}

func TestCSVWriters(t *testing.T) {
	records := RunSuite(smallSuite()[:2], []string{"bmc-icp"}, 20*time.Second, 0)
	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "instance,family,engine") || !strings.Contains(out, "bmc-icp") {
		t.Errorf("records csv:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != len(records)+1 {
		t.Errorf("csv rows = %d, want %d", lines, len(records)+1)
	}

	buf.Reset()
	if err := WriteSummaryCSV(&buf, records, []string{"bmc-icp"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "engine,safe,unsafe") {
		t.Errorf("summary csv:\n%s", buf.String())
	}

	buf.Reset()
	all := RunSuite(smallSuite()[:2], []string{"ic3-icp", "bmc-icp"}, 20*time.Second, 0)
	if err := WriteScatterCSV(&buf, all, "ic3-icp", "bmc-icp", 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x_seconds") {
		t.Errorf("scatter csv:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteEpsCSV(&buf, []EpsPoint{{Eps: 1e-3, Solved: 2, Unknown: 1, Time: time.Second}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.001,2,1") {
		t.Errorf("eps csv:\n%s", buf.String())
	}
}
