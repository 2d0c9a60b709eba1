package bmc_test

import (
	"testing"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/bmc"
	"icpic3/internal/certify"
	"icpic3/internal/engine"
	"icpic3/internal/ic3icp"
	"icpic3/internal/kind"
)

// BenchmarkUnroll runs kind on an unsafe and a safe suite model and bmc
// on the unsafe one, the unrolled queries of the repository benchmark's
// unroll workload.  It fails unless every verdict matches its label and
// both exact-trace exits fire: traceExits on a base query, ctiExits on a
// step query.  It also runs IC3 on two unsafe models, one with a Stepper
// and one without, whose counterexamples come from the same base case
// (Unrolling.BaseCase); each must be Unsafe with a trace certify.Check
// accepts.
func BenchmarkUnroll(b *testing.B) {
	insts := []benchmarks.Instance{
		benchmarks.Must(benchmarks.Poly(false, 1)),
		benchmarks.Must(benchmarks.Pendulum(true, 1)),
	}
	cexInsts := []benchmarks.Instance{
		benchmarks.Must(benchmarks.Poly(false, 1)),
		benchmarks.Must(benchmarks.Thermostat(false, 1)),
	}
	budget := engine.Budget{Timeout: time.Minute}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, in := range cexInsts {
			r := ic3icp.Check(in.Sys, ic3icp.Options{Budget: budget})
			if r.Verdict != engine.Unsafe {
				b.Fatalf("ic3 %s: %v (%s), want unsafe", in.Name, r.Verdict, r.Note)
			}
			if err := certify.Check(in.Sys, r, certify.Options{}); err != nil {
				b.Fatalf("ic3 %s: %v", in.Name, err)
			}
		}
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
