package ic3icp

import (
	"testing"
	"time"

	"icpic3/internal/engine"
	"icpic3/internal/icp"
	"icpic3/internal/tnf"
)

// TestBlockQueryBoundedVars asserts that the one-shot .tmp activation
// variables of consecution queries no longer accumulate without bound:
// once mainRebuildSlack of them have been retired, the main solver is
// rebuilt from tnfMain plus the durable-op log, so NumVars stays
// bounded over arbitrarily long runs.  Blocking and pushing queries
// share the main solver, so both count toward the slack.
func TestBlockQueryBoundedVars(t *testing.T) {
	ch := newTestChecker(t, logisticSrc)
	ch.newFrame() // F_0
	ch.newFrame() // F_1

	// Each query uses a distinct cube so the consecution memo never
	// hits: this test is about the solver-path .tmp lifecycle, and a
	// memo hit would (correctly) skip it entirely.
	cubeAt := func(i int) icpCube {
		return icpCube{tnf.MkGe(ch.curIDs[0], 0.95+float64(i)*1e-9)}
	}
	ch.blockQuery(cubeAt(0), 1)
	base := ch.main.NumVars() // tnf vars + frame acts + one .tmp
	bound := base + mainRebuildSlack

	for i := 0; i < 2*mainRebuildSlack+64; i++ {
		ch.blockQuery(cubeAt(i+1), 1)
		if n := ch.main.NumVars(); n > bound {
			t.Fatalf("query %d: main solver has %d vars, want <= %d", i, n, bound)
		}
	}
	if ch.stats["solverRebuilds"] < 2 {
		t.Errorf("solverRebuilds = %d after %d queries, want >= 2",
			ch.stats["solverRebuilds"], 2*mainRebuildSlack+65)
	}
	if ch.stats["consecCacheHits"] != 0 {
		t.Errorf("consecCacheHits = %d with all-distinct cubes, want 0",
			ch.stats["consecCacheHits"])
	}

	// And the flip side: repeating a cube whose answer was UNSAT is
	// served from the memo without growing the solver at all.
	r, _ := ch.blockQuery(cubeAt(0), 1)
	if r.Status == icp.StatusUnsat {
		before := ch.main.NumVars()
		r2, _ := ch.blockQuery(cubeAt(0), 1)
		if r2.Status != icp.StatusUnsat {
			t.Fatalf("memo replay changed status: %v", r2.Status)
		}
		if ch.stats["consecCacheHits"] == 0 {
			t.Error("repeated UNSAT blockQuery did not hit the consecution memo")
		}
		if n := ch.main.NumVars(); n != before {
			t.Errorf("memo hit grew the solver: %d -> %d vars", before, n)
		}
	}

	// A push sweep over a frame of more than mainRebuildSlack pending
	// cubes: every push is UNSAT (the logistic map never reaches 0.95),
	// each solver query retires a .tmp on main, and main is rebuilt once
	// on the way.
	ch = newTestChecker(t, logisticSrc)
	for i := 0; i < 3; i++ {
		ch.newFrame() // F_0, F_1, F_2
	}
	n := mainRebuildSlack + 64
	for i := 0; i < n; i++ {
		ch.frames[1] = append(ch.frames[1], &frameCube{cube: cubeAt(i), pending: true})
	}
	base = ch.main.NumVars()
	if i, fixed := ch.pushFrames(1); !fixed || i != 1 {
		t.Fatalf("pushFrames(1) = %d, %v; want every cube pushed and F_1 empty", i, fixed)
	}
	if got := ch.stats["queries"]; got != int64(n) {
		t.Errorf("push sweep ran %d queries, want %d", got, n)
	}
	if got := ch.stats["solverRebuilds"]; got != 1 {
		t.Errorf("solverRebuilds = %d after %d push queries, want 1", got, n)
	}
	if ch.main.retired != n-mainRebuildSlack {
		t.Errorf("main.retired = %d, want %d", ch.main.retired, n-mainRebuildSlack)
	}
	if got, bound := ch.main.NumVars(), base+mainRebuildSlack; got > bound {
		t.Errorf("main solver has %d vars after the push sweep, want <= %d", got, bound)
	}
}

// TestTriggeredPushReduceInvariance is the differential check that the
// trigger bookkeeping lives outside the solver and therefore survives
// learned-clause retirement: a run with reduction disabled and one with
// reduceDB forced to fire constantly (ReduceInterval=8) must agree on
// every verdict while both still skip dormant push attempts.  If
// triggers were keyed to solver-internal clause identity, aggressive
// reduction would either desynchronize the dormant set (flipping a
// verdict or losing pushes) or stop skipping entirely.
func TestTriggeredPushReduceInvariance(t *testing.T) {
	var deleted, skipped int64
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
			skipped += on.Stats["pushSkippedTriggered"]
		})
	}
	if deleted == 0 {
		t.Error("no clauses deleted across any forced-reduce run: reduceDB never fired")
	}
	if skipped == 0 {
		t.Error("no push attempts skipped across any forced-reduce run: triggers never engaged")
	}
}

// TestRetentionInvariance is the differential check for assumption-
// prefix trail retention under the full IC3 loop: a run with retention
// disabled (NoPrefixRetention) and the default retention-on run must
// agree on every verdict, the retention-on runs must actually save
// trail work somewhere, and the disabled runs must report zero savings
// (the counter only counts genuinely skipped events).  The consecution
// memo is active in both runs — it sits above the solver — so this
// isolates the retention layer alone.
func TestRetentionInvariance(t *testing.T) {
	var saved, lookups int64
	for _, inst := range pushInstances {
		t.Run(inst.name, func(t *testing.T) {
			runWith := func(solver icp.Options) engine.Result {
				sys := mustParse(t, inst.src)
				return Check(sys, Options{
					Budget: engine.Budget{Timeout: 30 * time.Second},
					Solver: solver,
				})
			}
			off := runWith(icp.Options{NoPrefixRetention: true})
			on := runWith(icp.Options{})
			if off.Verdict != on.Verdict {
				t.Fatalf("NoPrefixRetention got %v, retention got %v", off.Verdict, on.Verdict)
			}
			if off.Verdict == engine.Unknown {
				t.Fatalf("instance %s did not resolve within budget", inst.name)
			}
			if offSaved := off.Stats["trailEventsSaved"]; offSaved != 0 {
				t.Errorf("NoPrefixRetention run reported %d trail events saved", offSaved)
			}
			saved += on.Stats["trailEventsSaved"]
			lookups += on.Stats["consecCacheHits"] + on.Stats["consecCacheMisses"]
		})
	}
	if saved == 0 {
		t.Error("retention-on runs saved no trail events: retention never engaged")
	}
	// Hit counts depend on instances re-blocking a cube at the same frame
	// (TestBlockQueryBoundedVars pins the deterministic hit path); here we
	// only require the memo to be consulted on the consecution path.
	if lookups == 0 {
		t.Error("no consecution-memo lookups across any run: memo never engaged")
	}
}

// TestCubesDisjoint pins the box-disjointness predicate the trigger
// uses: only a provable gap between an upper and a lower bound on the
// same variable separates two boxes; everything else must report "may
// intersect" (the sound side for re-arming dormant pushes).
func TestCubesDisjoint(t *testing.T) {
	v, w := tnf.VarID(1), tnf.VarID(2)
	cases := []struct {
		name string
		a, b icpCube
		want bool
	}{
		{"gap", icpCube{tnf.MkLe(v, 1)}, icpCube{tnf.MkGe(v, 2)}, true},
		{"touching", icpCube{tnf.MkLe(v, 1)}, icpCube{tnf.MkGe(v, 1)}, false},
		{"touching strict", icpCube{tnf.MkLt(v, 1)}, icpCube{tnf.MkGe(v, 1)}, true},
		{"overlap", icpCube{tnf.MkLe(v, 3)}, icpCube{tnf.MkGe(v, 2)}, false},
		{"same direction", icpCube{tnf.MkLe(v, 1)}, icpCube{tnf.MkLe(v, 5)}, false},
		{"different vars", icpCube{tnf.MkLe(v, 1)}, icpCube{tnf.MkGe(w, 2)}, false},
		{"gap reversed", icpCube{tnf.MkGe(v, 2)}, icpCube{tnf.MkLe(v, 1)}, true},
		{"second var separates", icpCube{tnf.MkGe(v, 0), tnf.MkLe(w, 1)},
			icpCube{tnf.MkGe(v, 0), tnf.MkGe(w, 3)}, true},
		{"empty witness", icpCube{tnf.MkLe(v, 1)}, nil, false},
	}
	for _, tc := range cases {
		if got := cubesDisjoint(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: cubesDisjoint = %v, want %v", tc.name, got, tc.want)
		}
	}
}
