package icpic3_test

import (
	"fmt"
	"time"

	"icpic3"
)

// ExampleCheckIC3 proves a non-linear safety property and prints the
// discovered interval invariant.
func ExampleCheckIC3() {
	sys, _ := icpic3.ParseSystem(`
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8
`)
	res := icpic3.CheckIC3(sys, icpic3.IC3Options{
		Budget: icpic3.Budget{Timeout: 30 * time.Second},
	})
	fmt.Println(res.Verdict)
	inv := res.Certificate.Cubes
	fmt.Println("invariant cubes:", len(inv))
	// independently certify the proof
	fmt.Println("certified:", icpic3.VerifyInvariant(sys, inv) == nil)
	// Output:
	// safe
	// invariant cubes: 1
	// certified: true
}

// ExampleCheckBMC finds and validates a concrete counterexample.
func ExampleCheckBMC() {
	sys, _ := icpic3.ParseSystem(`
system counter
var x : real [0, 100]
init x <= 0
trans x' = x + 1
prop x <= 3
`)
	res := icpic3.CheckBMC(sys, icpic3.BMCOptions{MaxDepth: 16})
	fmt.Println(res.Verdict, "at depth", res.Depth)
	for i, st := range res.Trace {
		fmt.Printf("step %d: x=%.0f\n", i, st["x"])
	}
	// Output:
	// unsafe at depth 4
	// step 0: x=0
	// step 1: x=1
	// step 2: x=2
	// step 3: x=3
	// step 4: x=4
}

// ExampleCheckCircuit runs Boolean IC3/PDR on a hand-built circuit.
func ExampleCheckCircuit() {
	c := icpic3.NewCircuit()
	a := c.AddLatch(false)
	b := c.AddLatch(false)
	c.SetNext(a, a.Not())     // a toggles every cycle
	c.SetNext(b, c.And(a, b)) // b can never rise
	c.SetBad(b)
	res := icpic3.CheckCircuit(c, icpic3.CircuitOptions{})
	fmt.Println(res.Verdict)
	// Output:
	// safe
}

// ExampleNewSimulator steps a system concretely.
func ExampleNewSimulator() {
	sys, _ := icpic3.ParseSystem(`
system doubling
var x : real [0, 100]
init x = 1
trans x' = 2 * x
prop x <= 100
`)
	sim := icpic3.NewSimulator(sys, 0)
	trace := sim.Run(icpic3.State{"x": 1}, 4)
	for _, st := range trace {
		fmt.Printf("%.0f ", st["x"])
	}
	// Output:
	// 1 2 4 8 16
}
