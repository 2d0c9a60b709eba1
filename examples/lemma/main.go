// Lemma: the headline separation between IC3-ICP and bounded methods.
//
// A constant disturbance y (y' = y) is integrated into x (x' = x + y).
// The initial condition pins y to 0, so x never moves — but proving
// "x <= 5" requires the LEMMA "y <= 0", which no bounded unrolling can
// derive: k-induction fails at every k (a chain starting at x = 5-k*0.1,
// y = 0.1 satisfies the property for k steps and then violates it), and
// BMC cannot prove safety at all.  IC3-ICP discovers the lemma as a
// self-inductive interval clause within milliseconds.
//
//	go run ./examples/lemma
package main

import (
	"fmt"
	"log"
	"time"

	"icpic3"
)

const model = `
system frozen
var x : real [0, 100]
var y : real [0, 1]
init x >= 0 and x <= 1 and y = 0
trans x' = x + y and y' = y
prop x <= 5
`

func main() {
	sys, err := icpic3.ParseSystem(model)
	if err != nil {
		log.Fatal(err)
	}
	budget := icpic3.Budget{Timeout: 30 * time.Second}

	fmt.Println("system:")
	fmt.Print(model)
	fmt.Println()

	res := icpic3.CheckIC3(sys, icpic3.IC3Options{Budget: budget})
	fmt.Printf("ic3-icp : %-8s in %v\n", res.Verdict, res.Runtime.Round(time.Millisecond))
	if res.Verdict == icpic3.Safe {
		fmt.Println("  learned lemmas (blocked cubes):")
		for _, cube := range res.Certificate.Cubes {
			fmt.Printf("    not(%s)\n", cube)
		}
	}

	kres := icpic3.CheckKInduction(sys, icpic3.KInductionOptions{MaxK: 24, Budget: budget})
	fmt.Printf("kind-icp: %-8s (%s)\n", kres.Verdict, kres.Note)

	bres := icpic3.CheckBMC(sys, icpic3.BMCOptions{MaxDepth: 64, Budget: budget})
	fmt.Printf("bmc-icp : %-8s (%s)\n", bres.Verdict, bres.Note)

	// The portfolio inherits IC3's strength.
	pres := icpic3.CheckPortfolio(sys, icpic3.PortfolioOptions{Budget: budget})
	fmt.Printf("portfolio: %-7s (%s)\n", pres.Verdict, pres.Note)
}
