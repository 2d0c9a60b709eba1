// icplint is the repo's invariant linter: a multichecker driving the
// internal/analysis suite over any set of package patterns.  It exits
// nonzero on any finding not suppressed by a //lint:allow pragma, so
// `make lint` (and CI) turn soundness, determinism, and supervision
// violations into build failures.
//
// Usage:
//
//	icplint [packages]
//
// With no packages, ./... is linted.  Exit status is 0 when clean, 1 on
// findings, and 2 on a usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"icpic3/internal/analysis"
	"icpic3/internal/analysis/budgetloop"
	"icpic3/internal/analysis/detrange"
	"icpic3/internal/analysis/guardgo"
	"icpic3/internal/analysis/lockguard"
	"icpic3/internal/analysis/releasetrack"
	"icpic3/internal/analysis/resulterr"
	"icpic3/internal/analysis/roundcheck"
	"icpic3/internal/analysis/scratchalias"
)

// suite is the full analyzer set, in report order.
var suite = []*analysis.Analyzer{
	roundcheck.Analyzer,
	detrange.Analyzer,
	budgetloop.Analyzer,
	guardgo.Analyzer,
	resulterr.Analyzer,
	lockguard.Analyzer,
	releasetrack.Analyzer,
	scratchalias.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("icplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "icplint: %v\n", err)
		return 2
	}
	pkgs, err := analysis.LoadPackages(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "icplint: %v\n", err)
		return 2
	}
	findings, err := analysis.RunAnalyzers(pkgs, suite)
	if err != nil {
		fmt.Fprintf(stderr, "icplint: %v\n", err)
		return 2
	}
	analysis.WriteText(stdout, dir, findings)
	if analysis.Failing(findings) > 0 {
		return 1
	}
	return 0
}
