// Fixture for guardgo: the engine packages are in scope too, so a bare
// fan-out inside an engine is reported even though the supervisor
// above it runs under engine.Guard — the recover() there cannot see a
// panic on another goroutine.
package ic3icp

import "sync"

type checker struct{ results []bool }

func (ch *checker) query(i int) bool { return i%2 == 0 }

func (ch *checker) fanOut(n int) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) { // want `goroutine does not run under engine\.Guard/GuardGo`
			defer wg.Done()
			ch.results[w] = ch.query(w)
		}(w)
	}
	wg.Wait()
}

// sequential is the shape engines keep: no goroutine, nothing to report.
func (ch *checker) sequential(n int) {
	for i := 0; i < n; i++ {
		ch.results[i] = ch.query(i)
	}
}
