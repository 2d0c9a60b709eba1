// Package detrange flags `range` over a map in the verdict-affecting
// packages.  Go randomizes map iteration order, so any verdict-adjacent
// loop over a map can make two runs of the same job, which the
// determinism contract promises are identical, diverge.  The fix is to
// iterate a sorted key slice (see internal/det.SortedKeys) or an
// insertion-order slice kept alongside the map; genuinely
// order-insensitive loops (pure accumulation into another map,
// membership counting) may carry a //lint:allow detrange <reason>
// pragma.
package detrange

import (
	"go/ast"
	"go/types"

	"icpic3/internal/analysis"
)

// Scope lists the package-path suffixes whose verdicts the determinism
// contract covers.
var Scope = []string{
	"internal/icp",
	"internal/ic3icp",
	"internal/ic3bool",
	"internal/runner",
}

var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.Pkg.Path(), Scope...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				pass.Reportf(rng.Pos(), "range over map %s iterates in nondeterministic order; sort the keys first (det.SortedKeys) or keep an order slice", types.ExprString(rng.X))
			}
			return true
		})
	}
	return nil
}
