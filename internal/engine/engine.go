// Package engine defines the common result types and budgets shared by
// the verification engines (bmc, kind, ic3icp) and the experiment harness.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icpic3/internal/ts"
)

// Verdict is the outcome of a verification run.
type Verdict int

const (
	// Safe: the property holds in all reachable states (proved).
	Safe Verdict = iota
	// Unsafe: a validated counterexample trace was found.
	Unsafe
	// Unknown: undecided within the resource budget, or a candidate
	// counterexample failed validation (ε-spurious).
	Unknown
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "safe"
	case Unsafe:
		return "unsafe"
	}
	return "unknown"
}

// Result is the uniform outcome record of every engine.
type Result struct {
	Verdict Verdict
	// Trace is the validated counterexample (Unsafe), initial state first.
	Trace []ts.State
	// Depth is engine-specific: counterexample length - 1 for Unsafe,
	// frames/induction depth for Safe, bound reached for Unknown.
	Depth int
	// Runtime is the wall-clock time of the run.
	Runtime time.Duration
	// Note carries diagnostic detail (e.g. "candidate failed validation").
	Note string
	// Stats carries engine-specific counters.
	Stats map[string]int64
	// Certificate is independently re-checkable evidence for a Safe
	// verdict (see internal/certify); engines that prove safety attach
	// one, engines that only refute leave it nil.
	Certificate *Certificate
}

// DefaultEps is the ICP splitting width every engine, the certifier and
// the service use when a caller leaves ε zero.
const DefaultEps = 1e-5

// Certificate kinds.
const (
	// CertBoxInvariant: Cubes are interval boxes over the state variables;
	// the inductive invariant is Prop ∧ ⋀_c ¬c (produced by ic3icp).
	CertBoxInvariant = "box-invariant"
	// CertKInduction: the property is K-inductive (produced by kind).
	CertKInduction = "k-induction"
)

// Certificate is the evidence attached to a Safe verdict, in an
// engine-neutral form that internal/certify can re-check with fresh
// solver instances.
type Certificate struct {
	// Kind is one of the Cert* constants.
	Kind string `json:"kind"`
	// Cubes holds the blocked cubes of an invariant certificate.
	Cubes []Cube `json:"cubes,omitempty"`
	// K is the induction depth of a CertKInduction certificate.
	K int `json:"k,omitempty"`
}

// CertBound is one literal of a certificate cube: a bound on a named
// state variable.
type CertBound struct {
	Var    string  `json:"var"`
	Le     bool    `json:"le"` // true: Var <= B (< when Strict); false: Var >= B (>)
	B      float64 `json:"b"`
	Strict bool    `json:"strict,omitempty"`
}

func (b CertBound) String() string {
	op := "<="
	if b.Le {
		if b.Strict {
			op = "<"
		}
	} else {
		op = ">="
		if b.Strict {
			op = ">"
		}
	}
	return fmt.Sprintf("%s%s%g", b.Var, op, b.B)
}

// Cube is a box: a conjunction of bounds.  A box invariant is Prop ∧
// ⋀_c ¬c over its cubes.
type Cube []CertBound

func (c Cube) String() string {
	s := ""
	for i, b := range c {
		if i > 0 {
			s += " & "
		}
		s += b.String()
	}
	return s
}

func (r Result) String() string {
	return fmt.Sprintf("%s (depth %d, %v)", r.Verdict, r.Depth, r.Runtime.Round(time.Millisecond))
}

// Budget bounds a verification run and is the one run-control value an
// engine receives.  The zero value means "effectively unbounded"
// (engines still apply their own structural bounds).
//
// A budget expires when its wall-clock timeout elapses, when one of its
// cancellation signals (installed with WithDone) fires, or when its
// stall heartbeat (installed with WithStall) goes quiet for the stall
// limit.  Because every engine polls Expired from its solver Stop hook,
// each of these aborts a run promptly wherever it is, and none of them
// needs a goroutine: Expired checks them all when it is polled.
type Budget struct {
	// Timeout bounds wall-clock time (0 = none).
	Timeout time.Duration
	// start is stamped by Start.
	start time.Time
	// done holds the cancellation signals; any one closed expires the
	// budget.
	done []<-chan struct{}
	// beat, when non-nil, is the stall heartbeat every copy shares.
	beat *heartbeat
}

// heartbeat is a budget's stall detector.  Engines bump ticks; Expired,
// which reads the clock anyway, notices a count that has not changed
// for limit and latches stalled.
type heartbeat struct {
	limit time.Duration
	ticks atomic.Int64

	mu      sync.Mutex
	seen    int64         // guarded-by: mu; tick count at the last observed change
	seenAt  time.Duration // guarded-by: mu; elapsed time of that observation
	stalled bool          // guarded-by: mu; sticky once set
}

// Start stamps the budget's clock and returns it.  Start is idempotent:
// a budget that is already running keeps its original deadline, so a
// caller (e.g. the portfolio or the service) can start a budget once and
// hand it to engines that call Start themselves.
func (b Budget) Start() Budget {
	if b.start.IsZero() {
		b.start = time.Now()
	}
	return b
}

// WithDone returns a copy of the budget that also expires when done is
// closed.  Signals accumulate: the copy expires when any of them fires.
func (b Budget) WithDone(done <-chan struct{}) Budget {
	if done == nil {
		return b
	}
	// the full slice expression makes append copy, so budgets derived
	// from one parent never share (and overwrite) a backing array
	b.done = append(b.done[:len(b.done):len(b.done)], done)
	return b
}

// WithStall returns a copy of the budget with a fresh stall heartbeat
// (limit <= 0 returns the budget unchanged): once started, the budget
// expires when no Tick lands for limit, and Stalled reports it.  Every
// copy made from the result, the engines' included, shares the
// heartbeat, so a portfolio stalls only when all its members are silent.
func (b Budget) WithStall(limit time.Duration) Budget {
	if limit > 0 {
		b.beat = &heartbeat{limit: limit}
	}
	return b
}

// Tick records one unit of engine progress: a discharged obligation, a
// solver query, an unrolled depth.  It is one atomic add and reads no
// clock, so engines tick unconditionally; it is a no-op without a stall
// heartbeat.
func (b Budget) Tick() {
	if b.beat != nil {
		b.beat.ticks.Add(1)
	}
}

// Stalled reports whether the budget expired because its heartbeat went
// quiet for the stall limit.  It stays true once set, and it is false for
// a budget that expired by timeout or cancellation first.
func (b Budget) Stalled() bool {
	if b.beat == nil {
		return false
	}
	b.beat.mu.Lock()
	defer b.beat.mu.Unlock()
	return b.beat.stalled
}

// Expired reports whether the budget's timeout has elapsed, one of its
// cancellation signals has fired, or its heartbeat has stalled.
func (b Budget) Expired() bool {
	for _, d := range b.done {
		select {
		case <-d:
			return true
		default:
		}
	}
	if b.start.IsZero() {
		return false
	}
	if b.beat == nil {
		return b.Timeout > 0 && time.Since(b.start) > b.Timeout
	}
	return b.beat.expired(b.Timeout, b.start)
}

// expired is Expired's clock check for a budget with a heartbeat.  The
// timeout is checked before the stall, so a run that is both out of time
// and silent reads as a plain timeout.
func (h *heartbeat) expired(timeout time.Duration, start time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stalled {
		return true
	}
	// load the count before reading the clock: a tick that lands in
	// between shows up as a change at the next poll, never as silence
	n := h.ticks.Load()
	el := time.Since(start)
	if timeout > 0 && el > timeout {
		return true
	}
	if n != h.seen {
		h.seen, h.seenAt = n, el
		return false
	}
	if el-h.seenAt < h.limit {
		return false
	}
	h.stalled = true
	return true
}

// StopNote is the Note of an engine's Unknown after a solver query
// answered StatusUnknown: "timeout", the label of the engines' loop
// heads, when the budget has expired (the solver's Stop hook ended the
// query), else "solver budget (<query>)": the query itself hit the
// solver's per-Solve conflict or decision cap.
func (b Budget) StopNote(query string) string {
	if b.Expired() {
		return "timeout"
	}
	return "solver budget (" + query + ")"
}

// Elapsed returns the time since Start.
func (b Budget) Elapsed() time.Duration {
	if b.start.IsZero() {
		return 0
	}
	return time.Since(b.start)
}
