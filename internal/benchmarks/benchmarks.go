// Package benchmarks generates the synthetic benchmark families used by
// the evaluation (DESIGN.md §4).  They substitute for the proprietary
// BTC Embedded Systems instances the paper evaluated on: non-linear
// transition systems with mixed Boolean/real/integer state, in safe and
// unsafe variants of scalable difficulty, plus a Boolean circuit family
// for the Boolean-IC3 sanity anchor (Table IV).
package benchmarks

import (
	"fmt"
	"math"

	"icpic3/internal/aig"
	"icpic3/internal/engine"
	"icpic3/internal/ts"
)

// Instance is one benchmark: a transition system plus its ground truth.
type Instance struct {
	Name     string
	Family   string
	Expected engine.Verdict // ground-truth verdict (Safe or Unsafe)
	// Hard marks instances that a box-invariant engine is not expected to
	// prove within small budgets (Unknown is acceptable, wrong is not).
	Hard bool
	Sys  *ts.System
}

func parse(name string, src string) (*ts.System, error) {
	s, err := ts.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("benchmarks: %s: %v", name, err)
	}
	return s, nil
}

// Must unwraps a constructor result, turning a generation error into a
// panic.  Meant for tests and tables over the built-in (known-good)
// parameter grids; library callers handle the error instead.
func Must(in Instance, err error) Instance {
	if err != nil {
		panic(err)
	}
	return in
}

// Poly builds a cubic-decay instance: Euler steps of dx/dt = a·x − b·x³.
// Trajectories converge to the equilibrium sqrt(a/b).  The safe variant
// asks for a bound above the attractor, the unsafe variant for a bound the
// transient crosses.
func Poly(safe bool, idx int) (Instance, error) {
	a := 1.0
	b := []float64{0.25, 0.16, 0.0625, 0.04}[idx%4]
	eq := math.Sqrt(a / b) // 2, 2.5, 4, 5
	dt := 0.2
	x0 := 0.4 + 0.1*float64(idx%3)
	var bound float64
	verdict := engine.Safe
	if safe {
		bound = eq * 1.4
	} else {
		bound = eq * 0.7 // crossed on the way to the attractor
		verdict = engine.Unsafe
	}
	name := fmt.Sprintf("poly-%s-%d", safeTag(safe), idx)
	src := fmt.Sprintf(`
system %s
var x : real [0, %g]
init x >= %g and x <= %g
trans x' = x + %g * (%g * x - %g * x^3)
prop x <= %g
`, name, eq*2.5, x0, x0+0.1, dt, a, b, bound)
	sys, err := parse(name, src)
	if err != nil {
		return Instance{}, err
	}
	return Instance{Name: name, Family: "poly", Expected: verdict, Sys: sys}, nil
}

// Logistic builds a logistic-map instance x' = r·x·(1−x) on [0,1].
func Logistic(safe bool, idx int) (Instance, error) {
	r := []float64{2.2, 2.5, 2.8, 3.1}[idx%4]
	peak := r / 4 // max of the map over [0,1]
	x0 := 0.05 + 0.05*float64(idx%3)
	var bound float64
	verdict := engine.Safe
	if safe {
		bound = math.Min(0.98, peak+0.15)
	} else {
		// trajectories rise above r/4 * 0.8 quickly for these r
		bound = peak * 0.75
		verdict = engine.Unsafe
	}
	name := fmt.Sprintf("logistic-%s-%d", safeTag(safe), idx)
	src := fmt.Sprintf(`
system %s
var x : real [0, 1]
init x >= %g and x <= %g
trans x' = %g * x * (1 - x)
prop x <= %g
`, name, x0, x0+0.02, r, bound)
	sys, err := parse(name, src)
	if err != nil {
		return Instance{}, err
	}
	return Instance{Name: name, Family: "logistic", Expected: verdict, Sys: sys}, nil
}

// Vehicle builds a longitudinal-dynamics instance with quadratic drag:
// v' = v + dt·(u − c·v²).  Terminal velocity is sqrt(u/c).
func Vehicle(safe bool, idx int) (Instance, error) {
	u := 4.0 + float64(idx%3)
	c := 0.01
	vterm := math.Sqrt(u / c) // 20..24.5
	dt := 0.5
	var bound float64
	verdict := engine.Safe
	if safe {
		bound = vterm * 1.3
	} else {
		bound = vterm * 0.6
		verdict = engine.Unsafe
	}
	name := fmt.Sprintf("vehicle-%s-%d", safeTag(safe), idx)
	src := fmt.Sprintf(`
system %s
var v : real [0, %g]
init v >= 0 and v <= 1
trans v' = v + %g * (%g - %g * v^2)
prop v <= %g
`, name, vterm*2, dt, u, c, bound)
	sys, err := parse(name, src)
	if err != nil {
		return Instance{}, err
	}
	return Instance{Name: name, Family: "vehicle", Expected: verdict, Sys: sys}, nil
}

// Thermostat builds a two-mode heater with Newton cooling and a bilinear
// heating term; the Boolean mode switches on a threshold of the *next*
// temperature, giving genuinely mixed Boolean/real dynamics.
func Thermostat(safe bool, idx int) (Instance, error) {
	power := []float64{30.0, 32.0, 34.0}[idx%3]
	if !safe {
		power = []float64{70.0, 76.0, 82.0}[idx%3]
	}
	name := fmt.Sprintf("thermostat-%s-%d", safeTag(safe), idx)
	verdict := engine.Safe
	if !safe {
		verdict = engine.Unsafe
	}
	src := fmt.Sprintf(`
system %s
var T : real [0, 100]
var on : bool
init T >= 20 and T <= 22 and on
trans (on -> T' = T + 0.5 * (%g - T)) and \
      (!on -> T' = T - 0.25 * T) and \
      (on' <-> T' <= 25)
prop T <= 40
`, name, power)
	sys, err := parse(name, src)
	if err != nil {
		return Instance{}, err
	}
	return Instance{Name: name, Family: "thermostat", Expected: verdict, Sys: sys}, nil
}

// Pendulum builds a damped-pendulum instance (Euler), exercising the sin
// contractor: th' = th + dt·w, w' = w + dt·(−k·sin(th) − d·w).
func Pendulum(safe bool, idx int) (Instance, error) {
	k := 1.0
	d := []float64{0.8, 1.0, 1.2}[idx%3]
	dt := 0.2
	th0 := 0.3 + 0.1*float64(idx%2)
	name := fmt.Sprintf("pendulum-%s-%d", safeTag(safe), idx)
	verdict := engine.Safe
	bound := 1.2
	if !safe {
		// start high with an initial push: the swing exceeds the bound
		bound = 0.35
		verdict = engine.Unsafe
	}
	src := fmt.Sprintf(`
system %s
var th : real [-2, 2]
var w : real [-2, 2]
init th >= %g and th <= %g and w >= 0.4 and w <= 0.45
trans th' = th + %g * w and w' = w + %g * (-%g * sin(th) - %g * w)
prop th <= %g
`, name, th0, th0+0.05, dt, dt, k, d, bound)
	sys, err := parse(name, src)
	if err != nil {
		return Instance{}, err
	}
	return Instance{Name: name, Family: "pendulum", Expected: verdict, Hard: safe, Sys: sys}, nil
}

// CounterNL builds an integer instance with saturating doubling:
// n' = min(2n, cap).
func CounterNL(safe bool, idx int) (Instance, error) {
	capV := 64 << (idx % 3) // 64, 128, 256
	name := fmt.Sprintf("counternl-%s-%d", safeTag(safe), idx)
	verdict := engine.Safe
	bound := capV
	if !safe {
		bound = capV / 2 // reached after log2 steps
		verdict = engine.Unsafe
	}
	src := fmt.Sprintf(`
system %s
var n : int [1, %d]
init n = 1
trans n' = min(2 * n, %d)
prop n <= %d
`, name, capV, capV, bound)
	sys, err := parse(name, src)
	if err != nil {
		return Instance{}, err
	}
	return Instance{Name: name, Family: "counternl", Expected: verdict, Sys: sys}, nil
}

// Frozen builds a "frozen parameter" instance: a constant disturbance y
// (y' = y) integrated into x (x' = x + y).  The safe variant pins y to 0
// initially, so safety follows from the *lemma* y <= 0 — which bounded
// unrolling (k-induction) cannot derive for any small k, while IC3-ICP
// learns it as a self-inductive interval clause.  The unsafe variant gives
// y a positive range, producing counterexamples tens of steps deep.
func Frozen(safe bool, idx int) (Instance, error) {
	bound := []float64{5.0, 6.0, 7.0}[idx%3]
	name := fmt.Sprintf("frozen-%s-%d", safeTag(safe), idx)
	verdict := engine.Safe
	yInit := "y = 0"
	if !safe {
		verdict = engine.Unsafe
		yInit = fmt.Sprintf("y >= %g and y <= %g", 0.25, 0.3)
	}
	src := fmt.Sprintf(`
system %s
var x : real [0, 100]
var y : real [0, 1]
init x >= 0 and x <= 1 and %s
trans x' = x + y and y' = y
prop x <= %g
`, name, yInit, bound)
	sys, err := parse(name, src)
	if err != nil {
		return Instance{}, err
	}
	return Instance{Name: name, Family: "frozen", Expected: verdict, Sys: sys}, nil
}

func safeTag(safe bool) string {
	if safe {
		return "safe"
	}
	return "unsafe"
}

// Suite returns the default benchmark grid: n instances per family and
// polarity (n is clamped to the family's parameter ranges).
func Suite(n int) ([]Instance, error) {
	if n <= 0 {
		n = 3
	}
	var out []Instance
	type gen func(bool, int) (Instance, error)
	for _, g := range []gen{Poly, Logistic, Vehicle, Thermostat, Pendulum, CounterNL, Frozen} {
		for _, safe := range []bool{true, false} {
			for i := 0; i < n; i++ {
				in, err := g(safe, i)
				if err != nil {
					return nil, err
				}
				out = append(out, in)
			}
		}
	}
	return out, nil
}

// Families lists the family names in suite order.
func Families() []string {
	return []string{"poly", "logistic", "vehicle", "thermostat", "pendulum", "counternl", "frozen"}
}

// CircuitInstance is one Boolean benchmark for the ic3bool baseline.
type CircuitInstance struct {
	Name     string
	Expected engine.Verdict
	Circuit  *aig.Circuit
}

// Circuits returns the Boolean circuit suite (Table IV).  Counterexample
// depths are kept moderate: IC3/PDR needs one frame per step, so deep
// counters are its classical weak spot (that contrast is part of the
// table).
func Circuits() []CircuitInstance {
	var out []CircuitInstance
	for _, n := range []int{4, 5, 6} {
		out = append(out, CircuitInstance{
			Name:     fmt.Sprintf("counter%d-unsafe", n),
			Expected: engine.Unsafe,
			Circuit:  aig.Counter(n, uint64(1<<uint(n))-3),
		})
	}
	for _, n := range []int{6, 8, 10} {
		out = append(out, CircuitInstance{
			Name:     fmt.Sprintf("safecounter%d", n),
			Expected: engine.Safe,
			Circuit:  aig.SafeCounter(n),
		})
		out = append(out, CircuitInstance{
			Name:     fmt.Sprintf("shift%d-safe", n),
			Expected: engine.Safe,
			Circuit:  aig.ShiftRegister(n),
		})
		out = append(out, CircuitInstance{
			Name:     fmt.Sprintf("twisted%d-unsafe", n),
			Expected: engine.Unsafe,
			Circuit:  aig.TwistedCounter(n),
		})
	}
	return out
}
