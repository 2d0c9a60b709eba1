package ts

import (
	"math"
	"testing"

	"icpic3/internal/interval"
)

func mustParseSys(t *testing.T, src string) *System {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStepperShapes pins which transition relations get a stepper: a
// conjunction with one update x' = f(x) per real variable, in either
// orientation, plus guards.  Anything else gets none.
func TestStepperShapes(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"pendulum", `system p
var th : real [-2, 2]
var w : real [-2, 2]
init th >= 0.3 and th <= 0.35 and w >= 0.4 and w <= 0.45
trans th' = th + 0.2 * w and w' = w + 0.2 * (-sin(th) - w)
prop th <= 1.2`, true},
		{"reversed update", `system r
var x : real [0, 10]
init x <= 1
trans x / 2 + 1 = x'
prop x <= 5`, true},
		{"guard conjunct", `system g
var x : real [0, 10]
invariant x <= 9
init x <= 1
trans x' = x / 2
prop x <= 5`, true},
		{"thermostat", `system th
var T : real [0, 100]
var on : bool
init T >= 18 and T <= 22 and on
trans (on -> T' = T + 0.5 * (40 - T)) and (!on -> T' = T - 0.5 * T) and (on' <-> T' <= 25)
prop T <= 40`, false},
		{"integer", `system n
var n : int [0, 100]
init n = 1
trans n' = min(2 * n, 64)
prop n <= 64`, false},
		{"relational", `system rel
var x : real [0, 10]
init x <= 1
trans x' <= x + 1 and x' >= x
prop x <= 5`, false},
		{"disjunctive update", `system d
var x : real [0, 10]
init x <= 1
trans x' = x + 1 or x' = x
prop x <= 5`, false},
		{"update over primed", `system pp
var x : real [0, 10]
var y : real [0, 10]
init x <= 1 and y <= 1
trans x' = y' and y' = y
prop x <= 5`, false},
		{"missing update", `system m
var x : real [0, 10]
var y : real [0, 10]
init x <= 1 and y <= 1
trans x' = x + y
prop x <= 5`, false},
	}
	for _, c := range cases {
		sys := mustParseSys(t, c.src)
		if _, got := sys.Stepper(); got != c.want {
			t.Errorf("%s: Stepper() ok = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestStepperStep(t *testing.T) {
	sys := mustParseSys(t, `system p
var th : real [-2, 2]
var w : real [-2, 2]
init th >= 0.3 and th <= 0.35 and w >= 0.4 and w <= 0.45
trans th' = th + 0.2 * w and w' = w + 0.2 * (-sin(th) - w)
prop th <= 1.2`)
	st, ok := sys.Stepper()
	if !ok {
		t.Fatal("no stepper for the pendulum")
	}
	succ := make([]interval.Interval, 2)
	for _, cur := range [][]float64{{0.3, 0.4}, {-1.9, 1.7}, {1.224, -0.01}} {
		if !st.Step(points(cur...), succ) {
			t.Fatalf("Step(%v) failed", cur)
		}
		th, w := cur[0], cur[1]
		want := []float64{th + 0.2*w, w + 0.2*(-math.Sin(th)-w)}
		for i := range want {
			if !succ[i].Contains(want[i]) || succ[i].Width() > 1e-14 {
				t.Errorf("Step(%v)[%d] = %v, want a tight enclosure of %v", cur, i, succ[i], want[i])
			}
		}
	}

	// a guard must be true on the whole of (cur, succ): x <= 9 holds at
	// x = 8 and at x' = 4, and fails at x = 9.5; an undefined update fails
	g := mustParseSys(t, `system g
var x : real [-10, 10]
invariant x <= 9
init x <= 1
trans x' = 4 / x
prop x <= 5`)
	gs, ok := g.Stepper()
	if !ok {
		t.Fatal("no stepper for the guarded system")
	}
	one := make([]interval.Interval, 1)
	if !gs.Step(points(1), one) || !one[0].Contains(4) {
		t.Errorf("Step(1) = %v, want ok and an enclosure of 4", one[0])
	}
	if gs.Step(points(9.5), one) {
		t.Error("Step(9.5) ok, but the guard x <= 9 is false there")
	}
	if gs.Step(points(0.4), one) {
		t.Error("Step(0.4) ok, but the guard x' <= 9 is false at x' = 10")
	}
	if gs.Step(points(0), one) {
		t.Error("Step(0) ok, but the update 4 / x is undefined there")
	}

	// a box of states: [1, 2] steps into [2, 4]; [0.5, 1] reaches x' = 8
	// and passes the guard only where the whole enclosure does, which
	// [0.4, 1] does not (x' = 10 there); [-1, 1] holds the pole of 4 / x
	if !gs.Step([]interval.Interval{interval.New(1, 2)}, one) || !one[0].ContainsInterval(interval.New(2, 4)) || one[0].Width() > 2+1e-14 {
		t.Errorf("Step([1, 2]) = %v, want ok and a tight enclosure of [2, 4]", one[0])
	}
	if !gs.Step([]interval.Interval{interval.New(0.5, 1)}, one) {
		t.Error("Step([0.5, 1]) failed, but every successor lies in [4, 8]")
	}
	if gs.Step([]interval.Interval{interval.New(0.4, 1)}, one) {
		t.Error("Step([0.4, 1]) ok, but the guard x' <= 9 fails at x = 0.4")
	}
	if gs.Step([]interval.Interval{interval.New(-1, 1)}, one) {
		t.Error("Step([-1, 1]) ok, but the update 4 / x is undefined at 0")
	}

	// replaying a box over several steps: the pendulum's enclosures stay
	// tight, and each holds the point trajectory
	cur, next := points(0.3, 0.4), make([]interval.Interval, 2)
	th, w := 0.3, 0.4
	for k := 0; k < 20; k++ {
		if !st.Step(cur, next) {
			t.Fatalf("step %d failed", k)
		}
		th, w = th+0.2*w, w+0.2*(-math.Sin(th)-w)
		if !next[0].Contains(th) || !next[1].Contains(w) || next[0].Width() > 1e-12 {
			t.Fatalf("step %d: %v, want a tight enclosure of (%v, %v)", k, next, th, w)
		}
		cur, next = next, cur
	}
}

// points returns the point state of the given values.
func points(vals ...float64) []interval.Interval {
	out := make([]interval.Interval, len(vals))
	for i, v := range vals {
		out[i] = interval.Point(v)
	}
	return out
}
