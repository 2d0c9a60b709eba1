// Package icpic3 is the public façade of the ICP+IC3 model checker: a
// reproduction of "ICP and IC3" (Scheibler, Winterer, Seufert, Teige,
// Scholl, Becker — DATE 2021).  It verifies safety properties of
// transition systems with non-linear arithmetic by integrating interval
// constraint propagation (an iSAT3-style CDCL(ICP) solver) into the
// IC3/PDR algorithm, alongside BMC and k-induction baselines and a
// classical Boolean IC3 over and-inverter graphs.
//
// Quickstart:
//
//	sys, err := icpic3.ParseSystem(`
//	system decay
//	var x : real [0, 10]
//	init x >= 0 and x <= 6
//	trans x' = x / 2
//	prop x <= 8
//	`)
//	res := icpic3.CheckIC3(sys, icpic3.IC3Options{})
//	fmt.Println(res.Verdict) // safe
//
// Verdicts are sound: Safe comes with an inductive invariant over interval
// boxes, Unsafe with a concretely validated counterexample trace, and
// everything uncertain (including ε-spurious candidates) is Unknown.
package icpic3

import (
	"icpic3/internal/aig"
	"icpic3/internal/bmc"
	"icpic3/internal/certify"
	"icpic3/internal/engine"
	"icpic3/internal/ic3bool"
	"icpic3/internal/ic3icp"
	"icpic3/internal/icp"
	"icpic3/internal/kind"
	"icpic3/internal/runner"
	"icpic3/internal/ts"
)

// System is a symbolic transition system (see package-internal ts).
type System = ts.System

// State is a concrete valuation of the state variables.
type State = ts.State

// NewSystem returns an empty transition system to be populated through
// AddReal/AddInt/AddBool and ParseInit/ParseTrans/ParseProp.
func NewSystem(name string) *System { return ts.New(name) }

// ParseSystem reads a system from the model-file syntax (see ts.Parse).
func ParseSystem(src string) (*System, error) { return ts.Parse(src) }

// Simulator steps a system concretely through ICP point queries.
type Simulator = ts.Simulator

// NewSimulator builds a concrete simulator for the system (eps 0 = 1e-9).
func NewSimulator(sys *System, eps float64) *Simulator {
	return ts.NewSimulator(sys, eps)
}

// Witness is a machine-readable verification certificate.
type Witness = engine.Witness

// NewWitness assembles a witness from a result; invariant strings may be
// nil (for a Safe IC3 verdict they are the strings of its
// Certificate.Cubes).
func NewWitness(systemName string, res Result, invariant []string) Witness {
	return engine.NewWitness(systemName, res, invariant)
}

// Verdict is the outcome of a verification run.
type Verdict = engine.Verdict

// Verdict values.
const (
	// Safe: the property holds; an inductive invariant was found.
	Safe = engine.Safe
	// Unsafe: a validated counterexample trace exists.
	Unsafe = engine.Unsafe
	// Unknown: undecided within the budget.
	Unknown = engine.Unknown
)

// Result is the uniform verification outcome.
type Result = engine.Result

// Budget bounds a verification run by wall-clock time.
type Budget = engine.Budget

// IC3Options configures the ICP-augmented IC3 engine.
type IC3Options = ic3icp.Options

// GenMode selects the IC3 generalization strategy (ablation knob).
type GenMode = ic3icp.GenMode

// Generalization modes.
const (
	// GenNone blocks unmodified cubes.
	GenNone = ic3icp.GenNone
	// GenCore drops literals via UNSAT cores.
	GenCore = ic3icp.GenCore
	// GenCoreWiden additionally widens bounds outward (default).
	GenCoreWiden = ic3icp.GenCoreWiden
)

// CheckIC3 model-checks AG Prop with the ICP-augmented IC3 engine — the
// paper's contribution.  A Safe result carries the inductive invariant
// as res.Certificate.Cubes, and res.Stats["frames"] counts the frames.
func CheckIC3(sys *System, opts IC3Options) Result { return ic3icp.Check(sys, opts) }

// InvariantCube is one blocked box of an IC3 invariant.
type InvariantCube = engine.Cube

// VerifyInvariant independently certifies that Prop plus the negated cubes
// form a safe inductive invariant of the system (sound UNSAT checks with
// fresh solvers).  A nil return is a proof certificate.
func VerifyInvariant(sys *System, invariant []InvariantCube) error {
	return certify.BoxInvariant(sys, invariant, icp.Options{})
}

// BMCOptions configures the bounded model checking baseline.
type BMCOptions = bmc.Options

// CheckBMC searches for counterexamples by unrolling the transition
// relation (finds bugs, never proves safety).
func CheckBMC(sys *System, opts BMCOptions) Result { return bmc.Check(sys, opts) }

// KInductionOptions configures the k-induction baseline.
type KInductionOptions = kind.Options

// CheckKInduction proves k-inductive properties and finds shallow bugs.
func CheckKInduction(sys *System, opts KInductionOptions) Result {
	return kind.Check(sys, opts)
}

// PortfolioOptions configures the parallel engine portfolio: one set of
// options (ε, BMC depth, k-induction bound, IC3 generalization, budget)
// shared by every member engine; a zero field means the engine default.
type PortfolioOptions = runner.Spec

// CheckPortfolio runs IC3, BMC and k-induction concurrently, returning the
// first decisive verdict and cancelling the rest.  opts.Engine is ignored.
func CheckPortfolio(sys *System, opts PortfolioOptions) Result {
	opts.Engine = "portfolio"
	return runner.Check(sys, opts)
}

// Circuit is a sequential and-inverter graph for the Boolean engines.
type Circuit = aig.Circuit

// CircuitLit is a circuit literal (node with optional inversion).
type CircuitLit = aig.Lit

// Circuit constants.
const (
	// CircuitFalse is the constant-false literal.
	CircuitFalse = aig.False
	// CircuitTrue is the constant-true literal.
	CircuitTrue = aig.True
)

// CircuitVerdict is the outcome of a Boolean engine run.
type CircuitVerdict = ic3bool.Verdict

// Boolean verdicts.
const (
	// CircuitSafe: an inductive invariant exists.
	CircuitSafe = ic3bool.Safe
	// CircuitUnsafe: a counterexample trace exists.
	CircuitUnsafe = ic3bool.Unsafe
	// CircuitUnknown: budget exhausted.
	CircuitUnknown = ic3bool.Unknown
)

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit { return aig.New() }

// CircuitOptions configures the Boolean IC3 engine.
type CircuitOptions = ic3bool.Options

// CircuitResult is the outcome of a Boolean engine run.
type CircuitResult = ic3bool.Result

// CheckCircuit model-checks a circuit's bad output with Boolean IC3/PDR.
func CheckCircuit(c *Circuit, opts CircuitOptions) CircuitResult {
	return ic3bool.Check(c, opts)
}

// CheckCircuitBMC bounded-model-checks a circuit with the SAT solver.
func CheckCircuitBMC(c *Circuit, maxDepth int) CircuitResult {
	return ic3bool.BMC(c, maxDepth)
}
