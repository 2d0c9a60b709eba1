// Package a exercises the releasetrack analyzer: tickers and timers not
// stopped on every exit path.
package a

import "time"

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
