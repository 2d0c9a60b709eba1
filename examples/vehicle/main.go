// Vehicle: longitudinal dynamics with quadratic drag.  Shows how IC3-ICP
// scales with the distance between the property bound and the reachable
// set, and prints the discovered interval invariant.
//
//	go run ./examples/vehicle
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"icpic3"
)

func model(power, bound float64) string {
	return fmt.Sprintf(`
system vehicle
var v : real [0, 60]
init v >= 0 and v <= 1
trans v' = v + 0.5 * (%g - 0.01 * v^2)
prop v <= %g
`, power, bound)
}

func main() {
	budget := icpic3.Budget{Timeout: 60 * time.Second}

	// terminal velocity for power u is sqrt(u / 0.01) = 10*sqrt(u)
	fmt.Println("power  vterm  bound  verdict   frames  time")
	for _, tc := range []struct{ power, bound float64 }{
		{4, 30}, // vterm 20: safe with margin
		{4, 22}, // safe, tighter margin: more frames expected
		{4, 15}, // unsafe: bound below terminal velocity
		{9, 35}, // vterm 30: safe
		{9, 20}, // unsafe
	} {
		sys, err := icpic3.ParseSystem(model(tc.power, tc.bound))
		if err != nil {
			log.Fatal(err)
		}
		res := icpic3.CheckIC3(sys, icpic3.IC3Options{Budget: budget})
		fmt.Printf("%5g %6.1f %6g  %-8s %6d  %v\n",
			tc.power, 10*math.Sqrt(tc.power), tc.bound, res.Verdict, res.Stats["frames"],
			res.Runtime.Round(time.Millisecond))
		if inv := res.Certificate; res.Verdict == icpic3.Safe && len(inv.Cubes) > 0 {
			fmt.Printf("       invariant: prop AND not(%s)", inv.Cubes[0])
			if len(inv.Cubes) > 1 {
				fmt.Printf(" ... (%d cubes)", len(inv.Cubes))
			}
			fmt.Println()
		}
		if res.Verdict == icpic3.Unsafe {
			last := res.Trace[len(res.Trace)-1]
			fmt.Printf("       cex: %d steps, final v=%.3f\n", len(res.Trace)-1, last["v"])
		}
	}
}
