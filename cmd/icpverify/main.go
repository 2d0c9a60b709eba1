// Command icpverify model-checks a transition-system model file.
//
// Usage:
//
//	icpverify [flags] model.ts
//
// The model format (see internal/ts):
//
//	system decay
//	var x : real [0, 10]
//	init x >= 0 and x <= 6
//	trans x' = x / 2
//	prop x <= 8
//
// Engines: ic3 (default, proves and refutes), bmc (refutes only),
// kind (k-induction), portfolio (races the three, first decisive verdict
// wins), all (runs ic3, bmc and kind in turn and reports each verdict).
// The names come from the one engine table in internal/runner.
//
// Exit codes (scriptable):
//
//	0  safe     — the property was proved
//	1  unsafe   — a validated counterexample was found
//	2  unknown  — undecided within the budget (timeout or bound reached)
//	3  usage or parse error
//
// With -engine all, unsafe takes precedence over safe, which takes
// precedence over unknown.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"icpic3/internal/certify"
	"icpic3/internal/engine"
	"icpic3/internal/runner"
	"icpic3/internal/ts"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command on args and returns the exit code.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("icpverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		engineName = fs.String("engine", "ic3", "engine: "+strings.Join(runner.Names(), " | ")+" | all")
		timeout    = fs.Duration("timeout", 60*time.Second, "per-engine wall-clock budget")
		eps        = fs.Float64("eps", engine.DefaultEps, "minimum splitting width of the ICP solver")
		depth      = fs.Int("depth", 128, "maximum BMC unrolling depth")
		maxK       = fs.Int("k", 24, "maximum k-induction depth")
		gen        = fs.String("gen", "core+widen", "IC3 generalization: none | core | core+widen")
		showTrace  = fs.Bool("trace", true, "print counterexample traces")
		showInv    = fs.Bool("invariant", false, "print the inductive invariant (ic3, safe)")
		witnessOut = fs.String("witness", "", "write a JSON witness to this file")
		doCertify  = fs.Bool("certify", false, "independently re-check decisive verdicts (Safe certificates, Unsafe traces)")
	)
	// ContinueOnError so flag errors exit 3 (usage), not the flag
	// package's default 2, which would collide with "unknown verdict".
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 3
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: icpverify [flags] model.ts")
		fs.PrintDefaults()
		return 3
	}
	fail := func(format string, args ...interface{}) int {
		fmt.Fprintf(stderr, "icpverify: "+format+"\n", args...)
		return 3
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail("read: %v", err)
	}
	sys, err := ts.Parse(string(src))
	if err != nil {
		return fail("parse: %v", err)
	}
	if _, err := runner.ParseGen(*gen); err != nil {
		return fail("%v", err)
	}
	var rows []runner.Engine
	if *engineName == "all" {
		rows = runner.Members()
	} else {
		e, err := runner.Lookup(*engineName)
		if err != nil {
			return fail("%v", err)
		}
		rows = []runner.Engine{e}
	}

	budget := engine.Budget{Timeout: *timeout}
	logf := func(format string, args ...interface{}) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}
	sawSafe, sawUnsafe := false, false
	for _, e := range rows {
		n := e.Name
		// Guard converts an engine panic into an Unknown verdict (exit 2)
		// with the panic in the note, instead of a crash (exit 3-ish).
		res := engine.Guard(n, logf, func() engine.Result {
			return runner.Check(sys, runner.Spec{
				Engine: n, Eps: *eps, MaxDepth: *depth, MaxK: *maxK,
				Generalize: *gen, Budget: budget,
			})
		})
		if *doCertify && res.Verdict != engine.Unknown {
			verdict := res.Verdict
			if err := runner.Certify(sys, &res, certify.Options{Eps: *eps, Budget: budget}, logf); err != nil {
				fmt.Fprintf(stdout, "[%s] CERTIFICATION FAILED, demoting %s to unknown: %v\n", n, verdict, err)
			} else {
				fmt.Fprintf(stdout, "[%s] %s verdict independently certified\n", n, verdict)
			}
		}
		// A Safe IC3 proof carries its invariant as a box certificate.
		var invariant []string
		if cert := res.Certificate; res.Verdict == engine.Safe && cert != nil && cert.Kind == engine.CertBoxInvariant {
			for _, c := range cert.Cubes {
				invariant = append(invariant, c.String())
			}
			if *showInv {
				fmt.Fprintln(stdout, "inductive invariant (negated blocked cubes, conjoined with prop):")
				for _, c := range invariant {
					fmt.Fprintf(stdout, "  !(%s)\n", c)
				}
			}
		}
		fmt.Fprintf(stdout, "[%s] %s: %s (depth %d, %v)\n", n, sys.Name, res.Verdict, res.Depth,
			res.Runtime.Round(time.Millisecond))
		if res.Note != "" {
			fmt.Fprintf(stdout, "[%s] note: %s\n", n, res.Note)
		}
		if res.Verdict == engine.Unsafe && *showTrace {
			printTrace(stdout, sys, res.Trace)
		}
		switch res.Verdict {
		case engine.Safe:
			sawSafe = true
		case engine.Unsafe:
			sawUnsafe = true
		}
		if *witnessOut != "" {
			if err := writeWitness(*witnessOut, engine.NewWitness(sys.Name, res, invariant)); err != nil {
				return fail("witness: %v", err)
			}
			fmt.Fprintf(stdout, "[%s] witness written to %s\n", n, *witnessOut)
		}
	}
	switch {
	case sawUnsafe:
		return 1
	case sawSafe:
		return 0
	default:
		return 2
	}
}

func writeWitness(path string, w engine.Witness) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := w.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printTrace(w io.Writer, sys *ts.System, trace []ts.State) {
	vars := make([]string, 0, len(sys.Vars))
	for _, v := range sys.Vars {
		vars = append(vars, v.Name)
	}
	sort.Strings(vars)
	for i, st := range trace {
		fmt.Fprintf(w, "  step %2d:", i)
		for _, v := range vars {
			fmt.Fprintf(w, " %s=%g", v, st[v])
		}
		fmt.Fprintln(w)
	}
}
