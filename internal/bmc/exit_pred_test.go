package bmc

import (
	"fmt"
	"testing"

	"icpic3/internal/engine"
	"icpic3/internal/icp"
	"icpic3/internal/tnf"
	"icpic3/internal/ts"
)

// replayAt builds a base or step unrolling of src at depth k, compiles
// its violation literals and returns the exit predicate's verdict on the
// degenerate step-0 box at point (values in declaration order).
func replayAt(t *testing.T, src string, base bool, k int, point ...float64) func(robust bool) bool {
	t.Helper()
	sys := mustParse(t, src)
	u, err := NewUnrolling(sys, icp.Options{Eps: engine.DefaultEps}, base, ts.ValidateTol(engine.DefaultEps))
	if err != nil {
		t.Fatal(err)
	}
	if u.stepper == nil {
		t.Fatalf("%s: no stepper", sys.Name)
	}
	for i := 0; i < k; i++ {
		if err := u.Extend(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := u.bad(k); err != nil {
		t.Fatal(err)
	}
	lo, hi := make([]float64, len(sys.Vars)), make([]float64, len(sys.Vars))
	for i, id := range u.steps[0] {
		lo[id], hi[id] = point[i], point[i]
	}
	return func(robust bool) bool { return u.replays(lo, hi, robust) }
}

// count steps x by 1 and holds y (y' = ys, filled in per case); the
// robustness margin 2·tol is 0.02 at the default precision.
const countSrc = `
system count
var x : real [-10, 10]
var y : real [-2, 8]
init x >= 0 and x <= 1 and y >= 0 and y <= 1
trans x' = x + 1 and %s
prop %s
`

func countSys(update, prop string) string {
	return fmt.Sprintf(countSrc, update, prop)
}

// TestExitPredicateBase pins the base query's exit predicate: it accepts
// a start in Init whose replay stays in the domains, keeps every guard
// and every compiled subterm defined and violates the asked literal at
// step k, and rejects each way of falling short of that.
func TestExitPredicateBase(t *testing.T) {
	cases := []struct {
		name           string
		src            string
		k              int
		x, y           float64
		robust, plainT bool // the predicate's answer for each literal
	}{
		// 0.5, 1.5, 2.5: a robust violation of x <= 2 at step 2
		{"violates at k", countSys("y' = y", "x <= 2"), 2, 0.5, 0.5, true, true},
		{"holds at k", countSys("y' = y", "x <= 2"), 1, 0.5, 0.5, false, false},
		// 0.005, 1.005, 2.005: over 2, but inside the margin
		{"plain violation only", countSys("y' = y", "x <= 2"), 2, 0.005, 0.5, false, true},
		{"starts outside Init", countSys("y' = y", "x <= 2"), 2, 1.5, 0.5, false, false},
		{"start outside the domain", countSys("y' = y", "x <= 2"), 2, 0.5, -3, false, false},
		// y: 0.5, 5.5, 10.5 leaves [-2, 8] at step 2
		{"leaves a domain", countSys("y' = y + 5", "x <= 2"), 2, 0.5, 0.5, false, false},
		// the guard x <= 1.2 holds at step 0 (x = 0.5), fails at step 1
		{"falsifies a guard", countSys("y' = y and x <= 1.2", "x <= 2"), 2, 0.5, 0.5, false, false},
		{"keeps a guard", countSys("y' = y and x <= 1.7", "x <= 2"), 2, 0.5, 0.5, true, true},
		// y: 0.5, -0.5, 0.5: log(y) and sqrt(y) are undefined at step 1
		{"undefined log mid-trace", countSys("y' = -y", "x <= 2 and log(y) <= 100"), 2, 0.5, 0.5, false, false},
		{"undefined sqrt mid-trace", countSys("y' = -y", "x <= 2 and sqrt(y) <= 100"), 2, 0.5, 0.5, false, false},
		{"defined log", countSys("y' = y", "x <= 2 and log(y) <= 100"), 2, 0.5, 0.5, true, true},
		// undefined at the last step, where Prop is asked
		{"undefined sqrt at k", countSys("y' = y - 1", "x <= 2 and sqrt(y) <= 100"), 2, 0.5, 0.5, false, false},
	}
	for _, c := range cases {
		pred := replayAt(t, c.src, true, c.k, c.x, c.y)
		if got := pred(true); got != c.robust {
			t.Errorf("%s: robust literal: accepted %v, want %v", c.name, got, c.robust)
		}
		if got := pred(false); got != c.plainT {
			t.Errorf("%s: plain literal: accepted %v, want %v", c.name, got, c.plainT)
		}
	}
}

// TestExitPredicateRestricted: on a restricted base unrolling the
// predicate accepts only a start inside the step-0 cube, strictness
// respected, so an exit stays a model of the restricted query.
func TestExitPredicateRestricted(t *testing.T) {
	src := countSys("y' = y", "x <= 2")
	for _, c := range []struct {
		name string
		cube []tnf.Lit
		x    float64
		want bool
	}{
		{"inside", []tnf.Lit{tnf.MkGe(0, 0.4)}, 0.5, true},
		{"in Init, outside the cube", []tnf.Lit{tnf.MkGe(0, 0.8)}, 0.5, false},
		{"on a closed bound", []tnf.Lit{tnf.MkLe(0, 0.5)}, 0.5, true},
		{"on a strict bound", []tnf.Lit{tnf.MkLt(0, 0.5)}, 0.5, false},
		{"outside the cube in y", []tnf.Lit{tnf.MkGe(0, 0.4), tnf.MkGt(1, 0.6)}, 0.5, false},
	} {
		sys := mustParse(t, src)
		u, err := NewUnrolling(sys, icp.Options{Eps: engine.DefaultEps}, true, ts.ValidateTol(engine.DefaultEps))
		if err != nil {
			t.Fatal(err)
		}
		u.Restrict(c.cube)
		for i := 0; i < 2; i++ {
			if err := u.Extend(); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := u.bad(2); err != nil {
			t.Fatal(err)
		}
		lo, hi := []float64{c.x, 0.5}, []float64{c.x, 0.5}
		if got := u.replays(lo, hi, true); got != c.want {
			t.Errorf("%s: accepted %v, want %v", c.name, got, c.want)
		}
	}
}

// TestExitPredicateStep pins the step query's predicate: Prop must hold
// on steps 0..k-1 and fail at step k; Init is not part of the query.
func TestExitPredicateStep(t *testing.T) {
	src := countSys("y' = y", "x <= 2")
	for _, c := range []struct {
		name string
		k    int
		x    float64
		want bool
	}{
		{"counterexample to induction", 2, 0.5, true}, // 0.5, 1.5, 2.5
		{"start outside Init", 1, 1.5, true},          // 1.5, 2.5
		{"Prop fails before k", 2, 1.5, false},        // 1.5, 2.5, 3.5
		{"Prop fails at 0", 1, 2.5, false},
		{"Prop holds at k", 2, -0.5, false}, // -0.5, 0.5, 1.5
	} {
		if got := replayAt(t, src, false, c.k, c.x, 0.5)(false); got != c.want {
			t.Errorf("%s: accepted %v, want %v", c.name, got, c.want)
		}
	}
}

// TestNoStepperNoExit: systems with int or bool variables, or a
// relational Trans, get no exit and report no exits.
func TestNoStepperNoExit(t *testing.T) {
	for _, src := range []string{`
system n
var n : int [0, 100]
init n = 1
trans n' = 2 * n
prop n <= 20
`, `
system rel
var x : real [0, 10]
init x <= 1
trans x' >= x + 1 and x' <= x + 2
prop x <= 5
`} {
		sys := mustParse(t, src)
		u, err := NewUnrolling(sys, icp.Options{Eps: engine.DefaultEps}, true, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if u.stepper != nil {
			t.Errorf("%s: has a stepper", sys.Name)
		}
		res := Check(sys, Options{MaxDepth: 8})
		if res.Verdict != engine.Unsafe || res.Stats["traceExits"] != 0 {
			t.Errorf("%s: %v, traceExits %d; want unsafe without exits", sys.Name, res.Verdict, res.Stats["traceExits"])
		}
	}
}

// TestExitValidates: a base exit needs a trace the engines accept.  A
// violation of x <= 1 by more than the validation tolerance (0.01)
// passes, and so does a smaller one at depth 0, where the one-state
// trace is exact (ts.System.ValidateTrace).  At depth 1 the sub-tolerance
// violation's midpoint trace is not exact (x * 1.003 is rounded), so the
// replay proves it but validation rejects it and the plain query
// searches in full.
func TestExitValidates(t *testing.T) {
	for _, c := range []struct {
		init, trans string
		depth       int
		exit        bool
	}{
		{"x >= 0.5 and x <= 1.005", "x' = x / 2", 0, true},
		{"x >= 0.5 and x <= 1.5", "x' = x / 2", 0, true},
		{"x >= 0.5 and x <= 1", "x' = x * 1.003", 1, false},
	} {
		sys := mustParse(t, fmt.Sprintf(`
system v
var x : real [0, 10]
init %s
trans %s
prop x <= 1
`, c.init, c.trans))
		u, err := NewUnrolling(sys, icp.Options{Eps: engine.DefaultEps}, true, ts.ValidateTol(engine.DefaultEps))
		if err != nil {
			t.Fatal(err)
		}
		for u.Depth() < c.depth {
			if err := u.Extend(); err != nil {
				t.Fatal(err)
			}
		}
		a, err := u.Ask(false)
		if err != nil || a.Status != icp.StatusSat || a.Exit != c.exit {
			t.Errorf("%s, %s at depth %d: %v, exit %v, %v; want sat, exit %v", c.init, c.trans, c.depth, a.Status, a.Exit, err, c.exit)
		}
		if c.exit {
			if err := sys.ValidateTrace(a.Trace, ts.ValidateTol(engine.DefaultEps)); err != nil {
				t.Errorf("%s: exit trace %v fails validation: %v", c.init, a.Trace, err)
			}
		}
	}
}
