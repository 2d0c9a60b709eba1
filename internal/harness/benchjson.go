// Machine-readable performance snapshots: BenchJSON runs the engine
// suite twice — sequentially and with the parallel grid runner — and
// packages wall-clock, solved counts, and per-engine domain metrics as
// JSON (cmd/benchtab -json writes it to BENCH_<date>.json), so the
// repo's perf trajectory is diffable across PRs.
package harness

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/engine"
)

// RunConfigLine renders the execution environment of a text report —
// the GOMAXPROCS in force and the resolved suite worker count — so a
// saved table or figure records what parallelism produced it.  workers
// <= 0 resolves to GOMAXPROCS, mirroring parallel.go.
func RunConfigLine(workers int) string {
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 {
		workers = procs
	}
	return fmt.Sprintf("config: gomaxprocs %d, suite workers %d", procs, workers)
}

// BenchEngine is the per-engine slice of one suite run.
type BenchEngine struct {
	Engine       string  `json:"engine"`
	SolvedSafe   int     `json:"solved_safe"`
	SolvedUnsaf  int     `json:"solved_unsafe"`
	Unknown      int     `json:"unknown"`
	Wrong        int     `json:"wrong"`
	EngineSec    float64 `json:"engine_sec"`     // summed per-run engine time
	SolvedPerSec float64 `json:"solved_per_sec"` // solved / engine_sec

	// Instances holds one record per suite instance, in suite order.
	// Snapshots written before it existed have none.
	Instances []BenchInstance `json:"instances,omitempty"`

	// Counts are written as one flat key per nonzero counter (its Name);
	// a counter absent from an older snapshot reads as zero.
	Counts engine.Counts `json:"-"`
}

// BenchInstance is one engine's run on one suite instance: the verdict
// and the gated counters (schema rows with a Gate), so benchdiff can
// gate them over the instances both snapshots decided alike.
type BenchInstance struct {
	Name    string `json:"name"`
	Verdict string `json:"verdict"`

	// Counts holds the gated rows only, written like BenchEngine's.
	Counts engine.Counts `json:"-"`
}

// benchEngineFields and benchInstanceFields are the record types
// without their JSON methods.
type (
	benchEngineFields   BenchEngine
	benchInstanceFields BenchInstance
)

// MarshalJSON writes the fixed fields, then the nonzero counters.
func (e BenchEngine) MarshalJSON() ([]byte, error) {
	return marshalCounts(benchEngineFields(e), &e.Counts)
}

// UnmarshalJSON reads the fixed fields and every counter key present.
func (e *BenchEngine) UnmarshalJSON(b []byte) error {
	return unmarshalCounts(b, (*benchEngineFields)(e), &e.Counts)
}

// MarshalJSON writes the fixed fields, then the nonzero counters.
func (r BenchInstance) MarshalJSON() ([]byte, error) {
	return marshalCounts(benchInstanceFields(r), &r.Counts)
}

// UnmarshalJSON reads the fixed fields and every counter key present.
func (r *BenchInstance) UnmarshalJSON(b []byte) error {
	return unmarshalCounts(b, (*benchInstanceFields)(r), &r.Counts)
}

// marshalCounts marshals fields, then splices in the nonzero counters
// in schema order, each before the closing brace.
func marshalCounts(fields any, counts *engine.Counts) ([]byte, error) {
	b, err := json.Marshal(fields)
	for i, c := range engine.Counters {
		if err == nil && counts[i] != 0 {
			b = fmt.Appendf(b[:len(b)-1], ",%q:%d}", c.Name(), counts[i])
		}
	}
	return b, err
}

// unmarshalCounts reads the fixed fields into fields and every counter
// key present into counts.
func unmarshalCounts(b []byte, fields any, counts *engine.Counts) error {
	var raw map[string]json.RawMessage
	err := json.Unmarshal(b, &raw)
	if err == nil {
		err = json.Unmarshal(b, fields)
	}
	for i, c := range engine.Counters {
		if v, ok := raw[c.Name()]; ok && err == nil {
			err = json.Unmarshal(v, &counts[i])
		}
	}
	return err
}

// BenchRun is one full-suite execution at a fixed worker count.
type BenchRun struct {
	Workers int           `json:"workers"`
	WallSec float64       `json:"wall_sec"`
	Solved  int           `json:"solved"`
	Unknown int           `json:"unknown"`
	Wrong   int           `json:"wrong"`
	Engines []BenchEngine `json:"engines"`
}

// BenchReport is the BENCH_<date>.json document.
type BenchReport struct {
	Date       string   `json:"date"`
	SuiteSize  int      `json:"suite_size"`
	Instances  int      `json:"instances"`
	PerRunSec  float64  `json:"per_run_sec"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Baseline   BenchRun `json:"baseline"` // workers = 1
	Parallel   BenchRun `json:"parallel"`
	SpeedupX   float64  `json:"speedup_x"` // baseline wall / parallel wall

	// Per-leg records, index-aligned across legs (RunSuiteWorkers gives
	// every run an index-owned slot).  Unexported so the JSON document
	// stays an aggregate; tests use them to check that the two legs
	// never contradict each other on a verdict.
	baselineRecords []RunRecord
	parallelRecords []RunRecord
}

// Records exposes the index-aligned baseline and parallel legs.
func (r *BenchReport) Records() (baseline, parallel []RunRecord) {
	return r.baselineRecords, r.parallelRecords
}

// benchRun executes the suite once and aggregates.
func benchRun(suite []benchmarks.Instance, perRun time.Duration, workers int) (BenchRun, []RunRecord) {
	names := EngineNames()
	t0 := time.Now()
	records := RunSuiteWorkers(suite, names, perRun, workers)
	wall := time.Since(t0)

	run := BenchRun{Workers: workers, WallSec: wall.Seconds()}
	for _, s := range Summarize(records, names) {
		solved := s.SolvedSafe + s.SolvedUnsaf
		be := BenchEngine{
			Engine:      s.Engine,
			SolvedSafe:  s.SolvedSafe,
			SolvedUnsaf: s.SolvedUnsaf,
			Unknown:     s.Unknown,
			Wrong:       s.Wrong,
			EngineSec:   s.TotalTime.Seconds(),
			Counts:      s.Counts,
		}
		if be.EngineSec > 0 {
			be.SolvedPerSec = float64(solved) / be.EngineSec
		}
		for _, r := range records {
			if r.Engine == s.Engine {
				bi := BenchInstance{Name: r.Instance, Verdict: r.Result.Verdict.String()}
				for i, c := range engine.Counters {
					if c.Gate > 0 {
						bi.Counts[i] = r.Result.Stats[c.Key]
					}
				}
				be.Instances = append(be.Instances, bi)
			}
		}
		run.Solved += solved
		run.Unknown += s.Unknown
		run.Wrong += s.Wrong
		run.Engines = append(run.Engines, be)
	}
	return run, records
}

// BenchJSON builds the baseline-vs-parallel comparison over the suite.
// workers <= 0 selects GOMAXPROCS for the parallel leg; date is stamped
// by the caller (e.g. time.Now().Format("2006-01-02")).
func BenchJSON(suiteSize int, perRun time.Duration, workers int, date string) (*BenchReport, error) {
	suite, err := benchmarks.Suite(suiteSize)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &BenchReport{
		Date:       date,
		SuiteSize:  suiteSize,
		Instances:  len(suite),
		PerRunSec:  perRun.Seconds(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	rep.Baseline, rep.baselineRecords = benchRun(suite, perRun, 1)
	rep.Parallel, rep.parallelRecords = benchRun(suite, perRun, workers)
	if rep.Parallel.WallSec > 0 {
		rep.SpeedupX = rep.Baseline.WallSec / rep.Parallel.WallSec
	}
	return rep, nil
}
