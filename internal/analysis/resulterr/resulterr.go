// Package resulterr flags discarded errors from the constructor layer
// that PR 2 converted from panic to error — principally internal/tnf's
// System builders (AddVar, CompileArith, Assert, ...) and the
// internal/expr parser.  A discarded constructor error leaves the
// system silently half-built: the solver then proves properties about
// a different model than the caller wrote, which is a soundness bug
// that no downstream check can catch.  The error must be handled or
// explicitly propagated; assigning it to _ or dropping the whole
// result is reported everywhere in the repo.
package resulterr

import (
	"go/ast"
	"go/types"

	"icpic3/internal/analysis"
)

// CalleePkgs lists the package suffixes whose error results are
// load-bearing for model construction.
var CalleePkgs = []string{
	"internal/tnf",
	"internal/expr",
}

var Analyzer = &analysis.Analyzer{
	Name: "resulterr",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, idx := guardedCall(pass.TypesInfo, call); idx >= 0 {
						pass.Reportf(call.Pos(), "result of %s discarded; its error reports a half-built model and must be handled", name)
					}
				}
				return true
			case *ast.GoStmt:
				if name, idx := guardedCall(pass.TypesInfo, n.Call); idx >= 0 {
					pass.Reportf(n.Call.Pos(), "result of %s discarded by go statement; its error must be handled", name)
				}
				return true
			case *ast.DeferStmt:
				if name, idx := guardedCall(pass.TypesInfo, n.Call); idx >= 0 {
					pass.Reportf(n.Call.Pos(), "result of %s discarded by defer statement; its error must be handled", name)
				}
				return true
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				name, errIdx := guardedCall(pass.TypesInfo, call)
				if errIdx < 0 || errIdx >= len(n.Lhs) {
					return true
				}
				if id, ok := n.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
					pass.Reportf(id.Pos(), "error of %s assigned to _; it reports a half-built model and must be handled", name)
				}
				return true
			}
			return true
		})
	}
	return nil
}

// guardedCall reports whether call targets an error-returning function
// of the guarded constructor packages, returning the callee name and
// the index of the error result (-1 otherwise).
func guardedCall(info *types.Info, call *ast.CallExpr) (string, int) {
	obj := analysis.CalleeObject(info, call)
	if obj == nil || obj.Pkg() == nil || !analysis.PathMatches(obj.Pkg().Path(), CalleePkgs...) {
		return "", -1
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", -1
	}
	last := sig.Results().Len() - 1
	if !isErrorType(sig.Results().At(last).Type()) {
		return "", -1
	}
	return obj.Name(), last
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface)
}
