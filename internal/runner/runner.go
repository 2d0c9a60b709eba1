// Package runner is the one run path from an engine name to a verdict.
// It holds the ordered engine table, the Spec every caller fills in,
// Check, and Certify.  icpverify, the evaluation harness, the service
// and the façade's portfolio all run engines through it, so an engine
// is declared once and every caller maps its options the same way.
//
// A zero Spec field means "engine default": the runner passes it
// through unchanged, so a caller that leaves a field zero gets exactly
// the run it would get calling the engine with zero options.
package runner

import (
	"fmt"
	"strings"
	"sync"

	"icpic3/internal/bmc"
	"icpic3/internal/certify"
	"icpic3/internal/engine"
	"icpic3/internal/ic3icp"
	"icpic3/internal/icp"
	"icpic3/internal/kind"
	"icpic3/internal/ts"
)

// Spec configures one run.  Every field is optional.
type Spec struct {
	// Engine names a table row by flag name or report label (see
	// Lookup).  CheckPortfolio in the façade ignores it.
	Engine string
	// Eps is the ICP splitting width.
	Eps float64
	// MaxDepth bounds BMC unrolling.
	MaxDepth int
	// MaxK bounds the k-induction depth.
	MaxK int
	// Generalize is the IC3 generalization mode (see ParseGen).
	Generalize string
	// Budget bounds the run.
	Budget engine.Budget
	// Progress, when non-nil, receives the engine's heartbeat; the
	// portfolio shares it with every member.
	Progress *engine.Progress
	// SeedClauses are a prior proof's invariant clauses for IC3 (see
	// internal/reuse); each is re-checked before use.
	SeedClauses []ic3icp.Cube
	// SeedK is a prior proof's induction depth for k-induction.
	SeedK int
}

// Engine is one row of the engine table.
type Engine struct {
	// Name is the flag name: icpverify -engine, the service's "engine".
	Name string
	// Label is the report name: harness tables, portfolio notes.
	Label string
	check func(*ts.System, Spec) engine.Result
}

// members are the single engines in report order; the portfolio races
// them.
var members = []Engine{
	{Name: "ic3", Label: "ic3-icp", check: checkIC3},
	{Name: "bmc", Label: "bmc-icp", check: checkBMC},
	{Name: "kind", Label: "kind-icp", check: checkKind},
}

// table is every row: the members, then the portfolio.
var table = append(members[:len(members):len(members)],
	Engine{Name: "portfolio", Label: "portfolio", check: checkPortfolio})

// Members returns the single-engine rows in report order.
func Members() []Engine { return append([]Engine(nil), members...) }

// Names returns the flag name of every row in table order.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name
	}
	return names
}

// Lookup finds the row whose flag name or report label is name.
func Lookup(name string) (Engine, error) {
	for _, e := range table {
		if name == e.Name || name == e.Label {
			return e, nil
		}
	}
	return Engine{}, fmt.Errorf("unknown engine %q (want %s)", name, strings.Join(Names(), " | "))
}

// Check runs the engine s.Engine names.  An unknown engine or
// generalization mode comes back Unknown with the error as its note.
func Check(sys *ts.System, s Spec) engine.Result {
	e, err := Lookup(s.Engine)
	if err != nil {
		return engine.Result{Verdict: engine.Unknown, Note: err.Error()}
	}
	return e.check(sys, s)
}

// ParseGen parses an IC3 generalization mode: none | core | core+widen.
// "widen" is an alias of core+widen, and "" means the default,
// core+widen.  GenMode.String gives the canonical spelling back.
func ParseGen(s string) (ic3icp.GenMode, error) {
	switch s {
	case "none":
		return ic3icp.GenNone, nil
	case "core":
		return ic3icp.GenCore, nil
	case "", "core+widen", "widen":
		return ic3icp.GenCoreWiden, nil
	}
	return 0, fmt.Errorf("unknown generalization mode %q (want none | core | core+widen)", s)
}

func checkIC3(sys *ts.System, s Spec) engine.Result {
	gen, err := ParseGen(s.Generalize)
	if err != nil {
		return engine.Result{Verdict: engine.Unknown, Note: err.Error()}
	}
	return ic3icp.Check(sys, ic3icp.Options{
		Solver:      icp.Options{Eps: s.Eps},
		Generalize:  gen,
		SeedClauses: s.SeedClauses, Budget: s.Budget, Progress: s.Progress,
	})
}

func checkBMC(sys *ts.System, s Spec) engine.Result {
	return bmc.Check(sys, bmc.Options{
		MaxDepth: s.MaxDepth, Solver: icp.Options{Eps: s.Eps},
		Budget: s.Budget, Progress: s.Progress,
	})
}

func checkKind(sys *ts.System, s Spec) engine.Result {
	return kind.Check(sys, kind.Options{
		MaxK: s.MaxK, Solver: icp.Options{Eps: s.Eps}, SeedK: s.SeedK,
		Budget: s.Budget, Progress: s.Progress,
	})
}

// checkPortfolio runs every member concurrently over the same spec and
// returns the first decisive result; the Note records which member
// produced it.  This is the standard deployment mode for complementary
// engines: IC3 covers deep safety, BMC covers bugs, k-induction covers
// easy proofs.  Losing members are cancelled eagerly through the
// budget's done channel, which every engine polls from its solver
// inner loop.
func checkPortfolio(sys *ts.System, s Spec) engine.Result {
	if err := sys.Validate(); err != nil {
		return engine.Result{Verdict: engine.Unknown, Note: err.Error()}
	}

	// done cancels the losing members: it is closed on every return
	// path, and the shared budget carries it.
	done := make(chan struct{})
	defer close(done)
	s.Budget = s.Budget.WithDone(done).Start()

	type outcome struct {
		label string
		res   engine.Result
	}
	results := make(chan outcome, len(members))
	var wg sync.WaitGroup
	// Each member runs under engine.Guard: a panic in one engine counts
	// as that member answering Unknown instead of killing the process.
	for _, e := range members {
		e := e
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- outcome{label: e.Label, res: engine.Guard(e.Label, nil, func() engine.Result {
				return e.check(sys, s)
			})}
		}()
	}
	go func() {
		defer close(results)
		engine.GuardGo("portfolio.wait", nil, wg.Wait)
	}()

	note := "all engines undecided"
	for out := range results {
		if out.res.Verdict != engine.Unknown {
			// the deferred close(done) aborts the remaining members; their
			// results are discarded (the channel is buffered for all)
			res := out.res
			res.Note = "decided by " + out.label
			if out.res.Note != "" {
				res.Note += ": " + out.res.Note
			}
			res.Runtime = s.Budget.Elapsed()
			return res
		}
		note += fmt.Sprintf("; %s: %s", out.label, out.res.Note)
	}
	return engine.Result{Verdict: engine.Unknown, Note: note, Runtime: s.Budget.Elapsed()}
}

// Certify independently re-checks a decisive result (Safe certificate
// obligations with fresh solvers, Unsafe trace replay) and demotes it
// to Unknown when the check fails, so an ε-spurious answer is never
// reported as decisive.  The test fault hook engine.CorruptResult runs
// first; the check itself runs under engine.Guard, so a panicking
// checker fails the check instead of the caller.  It returns the
// failure, or nil when the result stands (Unknown always stands).
func Certify(sys *ts.System, res *engine.Result, opts certify.Options,
	logf func(format string, args ...interface{})) error {

	if res.Verdict == engine.Unknown {
		return nil
	}
	engine.CorruptResult(sys.Name, res)
	var err error
	g := engine.Guard(sys.Name+" certify", logf, func() engine.Result {
		err = certify.Check(sys, *res, opts)
		return engine.Result{}
	})
	if engine.Panicked(g) {
		err = fmt.Errorf("certifier %s", g.Note)
	}
	if err != nil {
		*res = engine.Result{
			Verdict: engine.Unknown,
			Depth:   res.Depth,
			Runtime: res.Runtime,
			Stats:   res.Stats,
			Note:    fmt.Sprintf("CERTIFICATION FAILED: %s verdict withdrawn: %v", res.Verdict, err),
		}
	}
	return err
}
