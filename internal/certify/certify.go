// Package certify independently re-checks decisive verification results
// before they are trusted (cached, served, or printed).  The paper's
// soundness story makes this nearly free: a Safe verdict of IC3 comes
// with an inductive invariant — the clause set of the converged frame —
// whose three proof obligations (Init ⊆ Inv, Inv ∧ T ⊨ Inv', Inv ⊨ Prop)
// are discharged here with fresh solver instances; an Unsafe verdict
// comes with a concrete trace that is replayed exactly.  A result that
// fails its check is demoted to Unknown by the caller rather than served
// as a wrong answer.
package certify

import (
	"errors"
	"fmt"

	"icpic3/internal/engine"
	"icpic3/internal/icp"
	"icpic3/internal/kind"
	"icpic3/internal/ts"
)

// Options configures a certification run.
type Options struct {
	// Eps is the ICP splitting width for invariant re-checking (0 =
	// engine.DefaultEps).
	Eps float64
	// Budget bounds the re-check (zero value = unbounded); a budgeted-out
	// check fails with a "certification undecided" error, never by
	// confirming the verdict.
	Budget engine.Budget
}

func (o Options) withDefaults() Options {
	if o.Eps <= 0 {
		o.Eps = engine.DefaultEps
	}
	return o
}

// Check re-verifies a result against its system.  Safe verdicts must
// carry a certificate that passes its obligations; Unsafe verdicts must
// carry a trace that replays concretely.  Unknown verdicts carry no
// claim and pass vacuously.  A non-nil error means the result must not
// be trusted (the caller demotes it to Unknown).
func Check(sys *ts.System, res engine.Result, opts Options) error {
	opts = opts.withDefaults()
	budget := opts.Budget.Start()
	switch res.Verdict {
	case engine.Unknown:
		return nil
	case engine.Unsafe:
		if len(res.Trace) == 0 {
			return errors.New("certify: Unsafe verdict without a trace")
		}
		if err := sys.ValidateTrace(res.Trace, ts.ValidateTol(opts.Eps)); err != nil {
			return fmt.Errorf("certify: trace replay failed: %w", err)
		}
		return nil
	}

	cert := res.Certificate
	if cert == nil {
		return errors.New("certify: Safe verdict without a certificate")
	}
	switch cert.Kind {
	case engine.CertBoxInvariant:
		solver := icp.Options{Eps: opts.Eps, Stop: budget.Expired}
		if err := BoxInvariant(sys, cert.Cubes, solver); err != nil {
			return fmt.Errorf("certify: %w", err)
		}
		return nil
	case engine.CertKInduction:
		// Re-establish K-inductiveness with fresh solvers: a bounded re-run
		// at the certified depth must again conclude Safe.  The step case
		// only exists for k >= 1 (and MaxK <= 0 would mean "use default"),
		// so shallower claims are malformed.  SeedK = MaxK = K proves every
		// base case 0..K and the step case at K — the whole claim — and
		// skips only the shallower step cases, which the certificate does
		// not rely on.
		if cert.K < 1 {
			return fmt.Errorf("certify: invalid k-induction depth %d", cert.K)
		}
		re := kind.Check(sys, kind.Options{
			MaxK:   cert.K,
			SeedK:  cert.K,
			Solver: icp.Options{Eps: opts.Eps},
			Budget: budget,
		})
		if re.Verdict != engine.Safe {
			return fmt.Errorf("certify: property not re-proved %d-inductive (re-check: %s, %s)",
				cert.K, re.Verdict, re.Note)
		}
		return nil
	}
	return fmt.Errorf("certify: unknown certificate kind %q", cert.Kind)
}
