// Fixture for budgetloop: unbounded engine loops must, on every
// iteration cycle, tick or poll the Budget, poll a Stop hook, or make
// bounded descent toward an exit; anything else is invisible to the
// stall heartbeat.
package ic3icp

import "icpic3/internal/engine"

type options struct {
	Stop func() bool
}

type checker struct {
	budget engine.Budget
	opts   options
	n      int
}

func (ch *checker) tick() { ch.budget.Tick() }

func (ch *checker) blind() {
	for { // want `unbounded for loop has an iteration cycle with no Budget\.Tick`
		ch.n++
		if ch.n > 100 {
			return
		}
	}
}

func (ch *checker) ticking() {
	for {
		ch.budget.Tick()
		if ch.n > 100 {
			return
		}
	}
}

func (ch *checker) viaHelper() {
	for {
		ch.tick() // transitively reaches Budget.Tick
		if ch.n > 100 {
			return
		}
	}
}

func (ch *checker) polling() {
	for {
		if ch.budget.Expired() {
			return
		}
		ch.n++
	}
}

func (ch *checker) stopHook() {
	for {
		if ch.opts.Stop != nil && ch.opts.Stop() {
			return
		}
		ch.n++
	}
}

func (ch *checker) bounded() {
	// loops with a condition are structurally bounded by it and out of
	// scope for the analyzer
	for ch.n < 100 {
		ch.n++
	}
}

// descent is the 1-UIP conflict-loop shape: every cycle decrements a
// local counter that the exit guard tests.  Bounded by construction; no
// poll needed.
func (ch *checker) descent(work []int) int {
	counter := len(work)
	acc := 0
	for {
		acc += work[counter-1]
		counter--
		if counter == 0 {
			break
		}
	}
	return acc
}

// amortizedPoll polls only every 1024th iteration, but the test is on
// every cycle: supervisable.
func (ch *checker) amortizedPoll() {
	steps := 0
	for {
		steps++
		if steps%1024 == 0 {
			if ch.budget.Expired() {
				return
			}
		}
		if ch.n > 100 {
			return
		}
	}
}

// continueSkipsPoll has a cycle (the continue path) that bypasses both
// the poll and the descent step — exactly an unsupervisable iteration.
func (ch *checker) continueSkipsPoll(items []int) {
	i := 0
	for { // want `unbounded for loop has an iteration cycle`
		if ch.n > 0 {
			continue // cycles forever without polling or descending
		}
		if ch.budget.Expired() {
			return
		}
		i++
		if i >= len(items) {
			return
		}
	}
}

// descentSkipped: the decrement sits behind a branch, so the other arm
// cycles without descending and without a poll.
func (ch *checker) descentSkipped(counter int) {
	for { // want `unbounded for loop has an iteration cycle`
		if counter > 0 {
			counter--
			if counter == 0 {
				return
			}
		}
		ch.n++
	}
}
