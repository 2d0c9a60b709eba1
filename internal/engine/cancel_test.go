package engine

import (
	"sync"
	"testing"
	"time"
)

func TestBudgetWithDone(t *testing.T) {
	done := make(chan struct{})
	b := Budget{}.WithDone(done).Start()
	if b.Expired() {
		t.Fatal("budget expired before done closed")
	}
	close(done)
	if !b.Expired() {
		t.Fatal("Expired() = false after done closed")
	}
	if b.Stalled() {
		t.Fatal("a cancelled budget reads as stalled")
	}
}

func TestBudgetWithDoneNil(t *testing.T) {
	b := Budget{Timeout: time.Hour}.WithDone(nil).Start()
	if b.Expired() {
		t.Fatal("nil done must be a no-op")
	}
}

func TestBudgetMergedDone(t *testing.T) {
	first := make(chan struct{})
	second := make(chan struct{})
	b := Budget{}.WithDone(first).WithDone(second)
	if b.Expired() {
		t.Fatal("cancelled before either channel closed")
	}
	close(second)
	if !b.Expired() {
		t.Fatal("merged budget did not observe the second channel at once")
	}
	close(first)
}

// TestBudgetDoneChain: whichever signal of a three-deep WithDone chain
// closes, the budget expires at the next poll, and budgets derived from
// one parent do not see each other's signals.
func TestBudgetDoneChain(t *testing.T) {
	for i := 0; i < 3; i++ {
		chans := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
		b := Budget{Timeout: time.Hour}.WithDone(chans[0]).WithDone(chans[1]).WithDone(chans[2]).Start()
		if b.Expired() {
			t.Fatalf("close %d: expired before any close", i)
		}
		close(chans[i])
		if !b.Expired() {
			t.Fatalf("close %d: Expired() = false right after the close", i)
		}
	}

	parent := Budget{}.WithDone(make(chan struct{}))
	x, y := make(chan struct{}), make(chan struct{})
	bx, by := parent.WithDone(x), parent.WithDone(y)
	close(x)
	if !bx.Expired() || by.Expired() {
		t.Fatalf("sibling budgets share signals: bx %v, by %v", bx.Expired(), by.Expired())
	}
}

func TestBudgetStartIdempotent(t *testing.T) {
	b := Budget{Timeout: 10 * time.Millisecond}.Start()
	time.Sleep(20 * time.Millisecond)
	if !b.Expired() {
		t.Fatal("budget should have expired")
	}
	if !b.Start().Expired() {
		t.Fatal("re-Start must not reset the running deadline")
	}
}

// TestBudgetStallExpires: a heartbeat silent past the stall limit expires
// the budget long before its timeout, and the stall is sticky: later
// ticks neither revive the budget nor clear Stalled.
func TestBudgetStallExpires(t *testing.T) {
	b := Budget{Timeout: time.Hour}.WithStall(20 * time.Millisecond).Start()
	if b.Expired() || b.Stalled() {
		t.Fatal("fresh budget already stalled")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !b.Expired() {
		if time.Now().After(deadline) {
			t.Fatal("silent budget never expired")
		}
		time.Sleep(time.Millisecond)
	}
	if !b.Stalled() {
		t.Fatal("expired by silence but Stalled() = false")
	}
	b.Tick()
	if !b.Expired() || !b.Stalled() {
		t.Fatal("a tick after the stall revived the budget")
	}
}

// TestBudgetTickKeepsAlive: a budget ticked between polls never stalls,
// however long it runs, because every poll sees the count move.
func TestBudgetTickKeepsAlive(t *testing.T) {
	b := Budget{}.WithStall(5 * time.Millisecond).Start()
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
		b.Tick()
		if b.Expired() {
			t.Fatal("ticking budget expired")
		}
		time.Sleep(time.Millisecond)
	}
	if b.Stalled() {
		t.Fatal("ticking budget reads as stalled")
	}
}

// TestBudgetTimeoutIsNotStall: a budget that is both out of time and
// silent when first polled expired by timeout, not by stall.
func TestBudgetTimeoutIsNotStall(t *testing.T) {
	b := Budget{Timeout: 10 * time.Millisecond}.WithStall(5 * time.Millisecond).Start()
	time.Sleep(20 * time.Millisecond)
	if !b.Expired() {
		t.Fatal("budget should have expired")
	}
	if b.Stalled() {
		t.Fatal("plain timeout reported as a stall")
	}
	long := Budget{Timeout: 10 * time.Millisecond}.WithStall(time.Hour).Start()
	time.Sleep(20 * time.Millisecond)
	if !long.Expired() || long.Stalled() {
		t.Fatalf("expired %v, stalled %v; want a plain timeout", long.Expired(), long.Stalled())
	}
}

func TestBudgetTickCounts(t *testing.T) {
	var b Budget
	b.Tick() // no heartbeat: a no-op, must not panic
	if b.Stalled() {
		t.Error("budget without heartbeat stalled")
	}
	b = b.WithStall(time.Hour)
	c := b.Start() // copies share the heartbeat
	b.Tick()
	c.Tick()
	if n := c.beat.ticks.Load(); n != 2 {
		t.Errorf("ticks = %d", n)
	}
	if b.WithStall(0).beat != b.beat {
		t.Error("WithStall(0) must leave the heartbeat alone")
	}
}

// TestBudgetConcurrentTicks: engines of a portfolio tick and poll one
// budget concurrently; every tick lands.
func TestBudgetConcurrentTicks(t *testing.T) {
	b := Budget{}.WithStall(time.Hour).Start()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				b.Tick()
				if j%10 == 0 && b.Expired() {
					t.Error("budget expired under ticking")
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := b.beat.ticks.Load(); n != 8000 {
		t.Errorf("ticks = %d", n)
	}
}
