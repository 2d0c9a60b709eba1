package bmc_test

import (
	"testing"
	"time"

	"icpic3/internal/benchmarks"
	"icpic3/internal/bmc"
	"icpic3/internal/engine"
	"icpic3/internal/icp"
	"icpic3/internal/kind"
	"icpic3/internal/ts"
)

// TestExitDifferential runs kind on every benchmarks.Suite(4) instance
// and bmc on the unsafe ones, with and without the exact-trace exit.
// Every query that ended at an exit, re-asked on a fresh unrolling
// without it, must come back Sat; every Unsafe trace must pass
// validation; and each run must end with the verdict and depth of the
// run without the exit.
func TestExitDifferential(t *testing.T) {
	suite, err := benchmarks.Suite(4)
	if err != nil {
		t.Fatal(err)
	}
	var name string
	exits := map[bool]int{} // by base side
	defer bmc.SetOnExit(func(u *bmc.Unrolling, robust bool) {
		exits[u.IsBase()]++
		if st, err := u.Reask(robust); err != nil || st != icp.StatusSat {
			t.Errorf("%s: exit at depth %d (base %v, robust %v), re-asked without it: %v, %v",
				name, u.Depth(), u.IsBase(), robust, st, err)
		}
	})()
	budget := engine.Budget{Timeout: time.Minute}
	tol := ts.ValidateTol(engine.DefaultEps)
	runs := func(sys *ts.System, unsafe bool) []engine.Result {
		out := []engine.Result{kind.Check(sys, kind.Options{Budget: budget})}
		if unsafe {
			out = append(out, bmc.Check(sys, bmc.Options{Budget: budget}))
		}
		return out
	}
	for _, in := range suite {
		name = in.Name
		unsafe := in.Expected == engine.Unsafe
		with := runs(in.Sys, unsafe)
		restore := bmc.SetNoExit()
		without := runs(in.Sys, unsafe)
		restore()
		for i, r := range with {
			if r.Verdict != without[i].Verdict || r.Depth != without[i].Depth {
				t.Errorf("%s run %d: %v at depth %d, without the exit %v at depth %d",
					in.Name, i, r.Verdict, r.Depth, without[i].Verdict, without[i].Depth)
			}
			if r.Verdict == engine.Unsafe {
				if err := in.Sys.ValidateTrace(r.Trace, tol); err != nil {
					t.Errorf("%s run %d: Unsafe trace fails validation: %v", in.Name, i, err)
				}
			}
		}
	}
	if exits[true] == 0 || exits[false] == 0 {
		t.Errorf("exits: %d base, %d step; want both sides exercised", exits[true], exits[false])
	}
	t.Logf("%d base exits, %d step exits re-asked", exits[true], exits[false])
}
