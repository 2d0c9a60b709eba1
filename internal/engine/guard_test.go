package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGuardPassesThrough(t *testing.T) {
	want := Result{Verdict: Safe, Depth: 3, Note: "ok"}
	got := Guard("t", nil, func() Result { return want })
	if got.Verdict != Safe || got.Depth != 3 || got.Note != "ok" {
		t.Errorf("got %+v", got)
	}
	if Panicked(got) {
		t.Error("clean run reported as panicked")
	}
}

func TestGuardRecoversPanic(t *testing.T) {
	var logged []string
	logf := func(format string, args ...interface{}) {
		logged = append(logged, format)
	}
	res := Guard("t", logf, func() Result { panic("boom") })
	if res.Verdict != Unknown {
		t.Errorf("verdict = %v", res.Verdict)
	}
	if !strings.Contains(res.Note, "boom") {
		t.Errorf("note = %q", res.Note)
	}
	if !Panicked(res) {
		t.Error("Panicked = false after a recovered panic")
	}
	if len(logged) == 0 {
		t.Error("stack not logged")
	}
}

func TestGuardNilLogf(t *testing.T) {
	res := Guard("t", nil, func() Result { panic(42) })
	if res.Verdict != Unknown || !Panicked(res) {
		t.Errorf("got %+v", res)
	}
}

func TestInjectFaultPanic(t *testing.T) {
	disarm := InjectFault("sysA", FaultPanic)
	defer disarm()
	res := Guard("sysA", nil, func() Result {
		FireFault("sysA", Budget{})
		return Result{Verdict: Safe}
	})
	if !Panicked(res) {
		t.Fatal("armed panic fault did not fire")
	}
	disarm()
	res = Guard("sysA", nil, func() Result {
		FireFault("sysA", Budget{})
		return Result{Verdict: Safe}
	})
	if Panicked(res) || res.Verdict != Safe {
		t.Fatalf("disarmed fault still fired: %+v", res)
	}
}

func TestInjectFaultStallRespectsBudget(t *testing.T) {
	disarm := InjectFault("sysB", FaultStall)
	defer disarm()
	done := make(chan struct{})
	start := time.Now()
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(done)
	}()
	FireFault("sysB", Budget{}.WithDone(done).Start())
	if time.Since(start) < 15*time.Millisecond {
		t.Error("stall fault returned before the budget expired")
	}
}

func TestCorruptResult(t *testing.T) {
	res := Result{Verdict: Safe, Certificate: &Certificate{Kind: CertBoxInvariant}}
	CorruptResult("sysC", &res) // not armed: no-op
	if len(res.Certificate.Cubes) != 0 {
		t.Fatal("unarmed CorruptResult mutated the certificate")
	}
	disarm := InjectFault("sysC", FaultBadCert)
	defer disarm()
	CorruptResult("sysC", &res)
	if len(res.Certificate.Cubes) != 1 || len(res.Certificate.Cubes[0]) != 0 {
		t.Fatalf("expected one empty cube, got %+v", res.Certificate.Cubes)
	}
	// nil certificate gains one so the corruption is always observable
	res2 := Result{Verdict: Safe}
	CorruptResult("sysC", &res2)
	if res2.Certificate == nil || len(res2.Certificate.Cubes) != 1 {
		t.Fatalf("nil certificate not corrupted: %+v", res2.Certificate)
	}
}

// TestGuardGoRecoversPanic covers the void-returning variant used to
// wrap infrastructure goroutines (watchdogs, WaitGroup waiters): a
// panic is swallowed, logged, and counted rather than killing the
// process.
func TestGuardGoRecoversPanic(t *testing.T) {
	before := GuardedPanics()
	var mu sync.Mutex
	var logged []string
	logf := func(format string, args ...interface{}) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		GuardGo("guardgo-test", logf, func() { panic("watchdog boom") })
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("GuardGo goroutine did not return after panic")
	}

	if got := GuardedPanics() - before; got != 1 {
		t.Errorf("GuardedPanics delta = %d, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) == 0 || !strings.Contains(logged[0], "watchdog boom") || !strings.Contains(logged[0], "guardgo-test") {
		t.Errorf("panic not logged with name and value: %q", logged)
	}
}

// TestGuardGoCleanRun asserts a non-panicking fn runs exactly once and
// leaves the panic counter alone.
func TestGuardGoCleanRun(t *testing.T) {
	before := GuardedPanics()
	ran := 0
	GuardGo("guardgo-clean", nil, func() { ran++ })
	if ran != 1 {
		t.Errorf("fn ran %d times, want 1", ran)
	}
	if got := GuardedPanics() - before; got != 0 {
		t.Errorf("GuardedPanics delta = %d, want 0", got)
	}
}
