// Package a exercises the releasetrack analyzer: unstopped tickers and
// goroutine-waiter channels not closed on every exit path.
package a

import (
	"time"

	"icpic3/internal/engine"
)

// --- tickers and timers ---

func tickerDeferred(work chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-work:
			return
		}
	}
}

func tickerBothBranches(p bool) {
	t := time.NewTicker(time.Second)
	if p {
		<-t.C
		t.Stop()
		return
	}
	t.Stop()
}

func tickerEarlyReturn(p bool) {
	t := time.NewTicker(time.Second) // want `time\.Ticker "t" is not released with Stop\(\)`
	if p {
		return // leaks the ticker
	}
	t.Stop()
}

func timerLeak() {
	tm := time.NewTimer(time.Second) // want `time\.Timer "tm" is not released with Stop\(\)`
	<-tm.C
}

func tickerPanicPathExempt(p bool) {
	t := time.NewTicker(time.Second)
	if p {
		panic("boom") // panic exits are not the leak's steady state
	}
	t.Stop()
}

// --- goroutine-waiter channels ---

func waiterClosedEverywhere(p bool) {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		}
	}()
	if p {
		close(done)
		return
	}
	close(done)
}

func waiterDeferClose() {
	done := make(chan struct{})
	defer close(done)
	go func() {
		<-done
	}()
}

func waiterSkippedOnBranch(p bool) {
	done := make(chan struct{}) // want `goroutine-waiter channel "done" is not released with close\(\)`
	go func() {
		<-done
	}()
	if p {
		return // the goroutine parks on done forever
	}
	close(done)
}

// mergedByHand merges two signals into the one channel a budget
// watches, through a goroutine released when the attempt returns: every
// exit closes attemptDone, so it is not flagged.
func mergedByHand(cancel, stalled <-chan struct{}) engine.Budget {
	abort := make(chan struct{})
	attemptDone := make(chan struct{})
	go func() {
		select {
		case <-cancel:
			close(abort)
		case <-stalled:
			close(abort)
		case <-attemptDone:
		}
	}()
	b := engine.Budget{Timeout: 1}.WithDone(abort).Start()
	close(attemptDone)
	return b
}

// goroutineCloses is the inverse ownership: the spawned goroutine
// closes the channel and the function receives it.  Not a waiter
// channel; never flagged.
func goroutineCloses() {
	done := make(chan struct{})
	go func() {
		defer close(done)
	}()
	<-done
}

// notWaited is a plain channel handed elsewhere; releasetrack does not
// guess at cross-function ownership.
func notWaited(sink chan<- chan struct{}) {
	ch := make(chan struct{})
	sink <- ch
}
