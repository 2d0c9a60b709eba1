package ic3icp

import (
	"testing"
	"time"

	"icpic3/internal/engine"
	"icpic3/internal/icp"
)

// TestReduceDBVerdictInvariance pins verdict equality between a run
// with learned-clause reduction disabled (Options.Solver.NoReduce) and
// one with reduction forced to fire far more often than the production
// default (ReduceInterval=8 instead of 2048).  Deleting learned and
// root-satisfied clauses may change the search path — depths and
// invariants are allowed to drift — but it must never flip a verdict:
// learned clauses are consequences of the formula, so removing them
// only costs work, never soundness.  The aggregate check at the end
// proves the forced runs actually exercised reduceDB.
func TestReduceDBVerdictInvariance(t *testing.T) {
	var deleted int64
	for _, inst := range pushInstances {
		t.Run(inst.name, func(t *testing.T) {
			runWith := func(solver icp.Options) engine.Result {
				sys := mustParse(t, inst.src)
				return Check(sys, Options{
					Budget: engine.Budget{Timeout: 30 * time.Second},
					Solver: solver,
				})
			}
			off := runWith(icp.Options{NoReduce: true})
			on := runWith(icp.Options{ReduceInterval: 8})
			if off.Verdict != on.Verdict {
				t.Fatalf("NoReduce got %v, ReduceInterval=8 got %v", off.Verdict, on.Verdict)
			}
			if off.Verdict == engine.Unknown {
				t.Fatalf("instance %s did not resolve within budget", inst.name)
			}
			deleted += on.Stats["clausesDeleted"]
		})
	}
	if deleted == 0 {
		t.Error("no clauses deleted across any forced-reduce run: reduceDB never fired")
	}
}
