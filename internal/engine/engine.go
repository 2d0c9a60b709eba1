// Package engine defines the common result types and budgets shared by
// the verification engines (bmc, kind, ic3icp) and the experiment harness.
package engine

import (
	"context"
	"fmt"
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

// Budget bounds a verification run.  The zero value means "effectively
// unbounded" (engines still apply their own structural bounds).
//
// A budget expires either when its wall-clock timeout elapses or when its
// cancellation signal (installed with WithDone or WithContext) fires.
// Because every engine polls Expired from its solver Stop hook, closing
// the done channel aborts a run promptly wherever it is.
type Budget struct {
	// Timeout bounds wall-clock time (0 = none).
	Timeout time.Duration
	// start is stamped by Start.
	start time.Time
	// done, when non-nil, cancels the run as soon as it is closed.
	done <-chan struct{}
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
// closed.  If the budget already carries a cancellation signal the two
// are merged: either one firing expires the budget.
func (b Budget) WithDone(done <-chan struct{}) Budget {
	if done == nil {
		return b
	}
	if b.done == nil {
		b.done = done
		return b
	}
	merged := make(chan struct{})
	prev := b.done
	go func() {
		select {
		case <-prev:
		case <-done:
		}
		close(merged)
	}()
	b.done = merged
	return b
}

// WithContext returns a copy of the budget that also expires when ctx is
// cancelled.
func (b Budget) WithContext(ctx context.Context) Budget {
	if ctx == nil {
		return b
	}
	return b.WithDone(ctx.Done())
}

// Cancelled reports whether the budget's cancellation signal has fired
// (independently of the timeout).
func (b Budget) Cancelled() bool {
	if b.done == nil {
		return false
	}
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// Expired reports whether the budget's timeout has elapsed or its
// cancellation signal has fired.
func (b Budget) Expired() bool {
	if b.Cancelled() {
		return true
	}
	return b.Timeout > 0 && !b.start.IsZero() && time.Since(b.start) > b.Timeout
}

// Elapsed returns the time since Start.
func (b Budget) Elapsed() time.Duration {
	if b.start.IsZero() {
		return 0
	}
	return time.Since(b.start)
}
