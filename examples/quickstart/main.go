// Quickstart: verify a tiny non-linear system with all three engines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"icpic3"
)

func main() {
	// A decaying quantity with a quadratic perturbation.  From any start
	// in [0, 6], x' = x/2 + x²/100 stays below 8: the property is safe,
	// and IC3 proves it with an interval-box invariant.
	sys, err := icpic3.ParseSystem(`
system quickstart
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2 + x^2 / 100
prop x <= 8
`)
	if err != nil {
		log.Fatal(err)
	}

	budget := icpic3.Budget{Timeout: 30 * time.Second}

	res := icpic3.CheckIC3(sys, icpic3.IC3Options{Budget: budget})
	fmt.Printf("ic3-icp : %-8s depth=%d  time=%v\n", res.Verdict, res.Depth,
		res.Runtime.Round(time.Millisecond))
	if res.Verdict == icpic3.Safe {
		fmt.Println("  inductive invariant = prop AND the negation of:")
		for _, cube := range res.Certificate.Cubes {
			fmt.Printf("    %s\n", cube)
		}
	}

	bres := icpic3.CheckBMC(sys, icpic3.BMCOptions{MaxDepth: 50, Budget: budget})
	fmt.Printf("bmc-icp : %-8s depth=%d  (%s)\n", bres.Verdict, bres.Depth, bres.Note)

	kres := icpic3.CheckKInduction(sys, icpic3.KInductionOptions{MaxK: 10, Budget: budget})
	fmt.Printf("kind-icp: %-8s k=%d\n", kres.Verdict, kres.Depth)

	// Now break the property: a stronger perturbation pushes x above the
	// bound, and the engines find a concrete, replayable counterexample.
	unsafe, err := icpic3.ParseSystem(`
system quickstart_unsafe
var x : real [0, 40]
init x >= 5 and x <= 6
trans x' = x / 2 + x^2 / 10
prop x <= 20
`)
	if err != nil {
		log.Fatal(err)
	}
	ures := icpic3.CheckIC3(unsafe, icpic3.IC3Options{Budget: budget})
	fmt.Printf("\nunsafe variant: %s (trace length %d)\n", ures.Verdict, len(ures.Trace))
	for i, st := range ures.Trace {
		fmt.Printf("  step %d: x=%.4f\n", i, st["x"])
	}
}
