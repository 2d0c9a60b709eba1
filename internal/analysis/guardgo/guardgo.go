// Package guardgo flags `go` statements in the supervised packages
// whose goroutine does not run under engine.Guard (result-shaped work)
// or engine.GuardGo (infrastructure goroutines).  The supervision
// contract of the service, the runner's portfolio, and the harness is
// that a panic costs one verdict, never the process; a bare goroutine is
// the one place where a recover() higher up cannot help, so every spawn
// must install its own guard.  The engine packages are in scope too:
// they spawn no goroutines today, and a new spawn there must be guarded
// like any other.  The check follows same-package calls
// (go s.worker() is fine when worker's body reaches engine.Guard), so
// only a genuinely unguarded spawn — or one delegating straight into
// another package — is reported.
package guardgo

import (
	"go/ast"

	"icpic3/internal/analysis"
)

// Scope lists the packages whose goroutines must be panic-isolated.
var Scope = []string{
	"internal/service",
	"internal/runner",
	"internal/harness",
	"internal/ic3icp",
	"internal/icp",
	"internal/kind",
	"internal/bmc",
	"internal/ic3bool",
	"internal/certify",
}

var Analyzer = &analysis.Analyzer{
	Name: "guardgo",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.Pkg.Path(), Scope...) {
		return nil
	}
	idx := analysis.BuildFuncIndex(pass)
	isGuard := func(call *ast.CallExpr) bool {
		obj := analysis.CalleeObject(pass.TypesInfo, call)
		return analysis.IsPkgFunc(obj, "internal/engine", "Guard") ||
			analysis.IsPkgFunc(obj, "internal/engine", "GuardGo")
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gostmt, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			// The guard may appear in the spawned function literal's body,
			// or transitively inside a same-package callee (go s.worker()).
			if isGuard(gostmt.Call) || idx.ContainsCall(pass.TypesInfo, gostmt.Call, isGuard) {
				return true
			}
			pass.Reportf(gostmt.Pos(), "goroutine does not run under engine.Guard/GuardGo; a panic here kills the process instead of costing one verdict")
			return true
		})
	}
	return nil
}
