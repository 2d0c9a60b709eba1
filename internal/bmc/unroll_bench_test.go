package bmc_test

import (
	"testing"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/bmc"
	"icpic3/internal/engine"
	"icpic3/internal/kind"
)

// BenchmarkUnroll runs kind on an unsafe and a safe suite model and bmc
// on the unsafe one, the unrolled queries of the repository benchmark's
// unroll workload.  It fails unless every verdict matches its label and
// both exact-trace exits fire: traceExits on a base query, ctiExits on a
// step query.
func BenchmarkUnroll(b *testing.B) {
	insts := []benchmarks.Instance{
		benchmarks.Must(benchmarks.Poly(false, 1)),
		benchmarks.Must(benchmarks.Pendulum(true, 1)),
	}
	budget := engine.Budget{Timeout: time.Minute}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		exits := map[string]int64{}
		for _, in := range insts {
			runs := []engine.Result{kind.Check(in.Sys, kind.Options{Budget: budget})}
			if in.Expected == engine.Unsafe {
				runs = append(runs, bmc.Check(in.Sys, bmc.Options{Budget: budget}))
			}
			for _, r := range runs {
				if r.Verdict != in.Expected {
					b.Fatalf("%s: %v (%s), want %v", in.Name, r.Verdict, r.Note, in.Expected)
				}
				exits["traceExits"] += r.Stats["traceExits"]
				exits["ctiExits"] += r.Stats["ctiExits"]
			}
		}
		if exits["traceExits"] == 0 || exits["ctiExits"] == 0 {
			b.Fatalf("exits %v; want both non-zero", exits)
		}
	}
}
