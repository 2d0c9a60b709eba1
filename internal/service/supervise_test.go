package service

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"icpic3/internal/engine"
)

// moduleGoroutines counts the live goroutines with a frame in this
// module's code (workers, engines, supervision), leaving out the Go
// runtime's and the testing package's own.
func moduleGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "icpic3/internal/") {
			n++
		}
	}
	return n
}

// settledGoroutines waits until moduleGoroutines reads the same twice
// in a row, so goroutines of earlier tests that are still winding down
// do not count against the next measurement.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	last := moduleGoroutines()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		n := moduleGoroutines()
		if n == last {
			return n
		}
		last = n
	}
	t.Fatal("module goroutine count never settled")
	return 0
}

// runningAttemptGoroutines submits req, waits until its attempt runs,
// and returns the most module goroutines seen above base over 100ms of
// samples.  The job is cancelled before returning.
func runningAttemptGoroutines(t *testing.T, s *Service, req Request, base int) int {
	t.Helper()
	st, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if cur, _ := s.Job(st.ID); cur.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
	}
	most := 0
	for i := 0; i < 10; i++ {
		time.Sleep(10 * time.Millisecond)
		if d := moduleGoroutines() - base; d > most {
			most = d
		}
	}
	if err := s.Cancel(st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if _, err := s.Wait(st.ID, 10*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}
	return most
}

// TestSupervisionSpawnsNoGoroutines: cancellation and the stall limit
// ride on the attempt's budget and are checked where the engines poll
// it, so supervising an attempt starts no goroutine.  A parked attempt
// adds none, and a running portfolio attempt adds only its three
// members and the waiter that closes their results.
func TestSupervisionSpawnsNoGoroutines(t *testing.T) {
	disarm := engine.InjectFault("stallvictim", engine.FaultStall)
	defer disarm()
	s := newTestService(t, Config{Workers: 1, StallTimeout: time.Minute, MaxRetries: -1, SkipCertify: true})

	base := settledGoroutines(t)
	if d := runningAttemptGoroutines(t, s, Request{Source: stallModel, Engine: "ic3", Timeout: time.Hour}, base); d != 0 {
		t.Errorf("parked attempt added %d goroutines, want 0", d)
	}

	// bmc exhausts its default depth on this model within milliseconds;
	// a bound it never reaches keeps all three members running
	base = settledGoroutines(t)
	req := Request{Source: hardModel, Engine: "portfolio", Timeout: time.Hour, MaxDepth: 1 << 20}
	if d := runningAttemptGoroutines(t, s, req, base); d != 4 {
		t.Errorf("running portfolio attempt added %d goroutines, want 4 (3 members, 1 waiter)", d)
	}
}
