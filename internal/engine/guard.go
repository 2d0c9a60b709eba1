package engine

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Guard runs fn and converts a panic into an Unknown result, so a single
// bad job can never take down a worker pool, a portfolio, or the whole
// process.  The panic value lands in the result's Note ("panic: ...") and
// Stats gains a "panics" counter; the captured stack goes to logf when
// one is provided (nil is fine).  A panicking run is a bug somewhere —
// the contract is merely that it costs one verdict, not one process.
func Guard(name string, logf func(format string, args ...interface{}), fn func() Result) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if logf != nil {
				logf("engine: %s: recovered panic: %v\n%s", name, r, stack)
			}
			res = Result{
				Verdict: Unknown,
				Note:    fmt.Sprintf("panic: %v", r),
				Stats:   map[string]int64{"panics": 1},
			}
		}
	}()
	return fn()
}

// Panicked reports whether a result was produced by Guard's panic
// recovery (as opposed to a regular engine return).
func Panicked(r Result) bool {
	return r.Stats != nil && r.Stats["panics"] > 0
}

// guardedPanics counts panics recovered by GuardGo, for tests and
// metrics.
var guardedPanics atomic.Int64

// GuardGo is Guard for infrastructure goroutines that produce no
// Result: waiter/closer plumbing, worker drivers.  It runs
// fn and converts a panic into a logged, counted no-op, so supervision
// machinery can never take down the process it supervises.  The
// goroutine simply ends early; callers must tolerate that (e.g. via
// budget expiry), which every current use does.
func GuardGo(name string, logf func(format string, args ...interface{}), fn func()) {
	defer func() {
		if r := recover(); r != nil {
			guardedPanics.Add(1)
			if logf != nil {
				logf("engine: %s: recovered goroutine panic: %v\n%s", name, r, debug.Stack())
			}
		}
	}()
	fn()
}

// GuardedPanics returns the number of panics GuardGo has recovered.
func GuardedPanics() int64 { return guardedPanics.Load() }

// --- test fault injection ----------------------------------------------
//
// The injector lets robustness tests provoke the failure modes the
// supervision layer exists for — panics, progress stalls, corrupted
// certificates — through the public engine path, without build tags.
// Faults are keyed by system name; production runs pay one mutex-guarded
// map lookup per job, and nothing fires unless a test armed a fault.

// Fault is a failure mode the test injector can arm for a system name.
type Fault int

const (
	// FaultPanic panics at engine entry (exercises Guard).
	FaultPanic Fault = iota + 1
	// FaultStall blocks at engine entry without ticking the budget until
	// it expires (exercises the budget's stall heartbeat).
	FaultStall
	// FaultBadCert corrupts the certificate of a decisive result
	// (exercises independent certificate checking).
	FaultBadCert
)

var (
	faultMu sync.Mutex
	faults  map[string]Fault
)

// InjectFault arms fault f for every run of a system with the given
// name and returns a function that disarms it.  Test use only.
func InjectFault(name string, f Fault) (disarm func()) {
	faultMu.Lock()
	if faults == nil {
		faults = make(map[string]Fault)
	}
	faults[name] = f
	faultMu.Unlock()
	return func() {
		faultMu.Lock()
		delete(faults, name)
		faultMu.Unlock()
	}
}

func armedFault(name string) Fault {
	faultMu.Lock()
	defer faultMu.Unlock()
	return faults[name]
}

// FireFault triggers an armed entry fault for the named system: it
// panics for FaultPanic, and for FaultStall it blocks without ticking
// until the budget expires (by stall, timeout or cancellation).
// Supervised runners call it right before dispatching the engine; with
// nothing armed it is a no-op.
func FireFault(name string, b Budget) {
	switch armedFault(name) {
	case FaultPanic:
		panic("injected fault: panic in engine run for " + name)
	case FaultStall:
		for !b.Expired() {
			time.Sleep(time.Millisecond)
		}
	}
}

// CorruptResult applies an armed FaultBadCert to a finished result: a
// blocked cube covering the whole state space is appended to the
// certificate, which any sound checker must reject (it swallows Init).
// Supervised runners call it between the engine run and certification.
func CorruptResult(name string, res *Result) {
	if armedFault(name) != FaultBadCert || res == nil {
		return
	}
	if res.Certificate == nil {
		res.Certificate = &Certificate{Kind: CertBoxInvariant}
	}
	res.Certificate.Cubes = append(res.Certificate.Cubes, Cube{})
}
