// Package roundcheck flags raw float arithmetic on interval endpoints
// in the contraction-adjacent packages.  Every enclosure bound the
// solver derives must be outward-rounded (interval.Interval's
// operations, or the exactness-tracking helpers in
// internal/icp/openbounds.go); a bare `lo + eps` on an endpoint float
// silently re-introduces the rounding unsoundness the whole ICP layer
// exists to prevent.  Arithmetic is flagged when an operand is
// endpoint-shaped: a .Lo/.Hi selector of an interval.Interval, a .B
// bound of a tnf.Lit or engine.CertBound, or an index into an lo/hi
// endpoint array.  Exact computations (integer tightening, heuristics
// whose result is re-verified by a solver query) may carry a
// //lint:allow roundcheck <why exact> pragma.
package roundcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"icpic3/internal/analysis"
)

// Scope lists the package-path suffixes where endpoint arithmetic must
// be outward-rounded.  internal/interval itself is the approved helper
// layer and is exempt, as is internal/icp/openbounds.go (the
// exactness-tracking endpoint kernel).
var Scope = []string{
	"internal/icp",
	"internal/ic3icp",
	"internal/ic3bool",
	"internal/certify",
}

// approvedFiles are file basenames exempted inside the scoped packages.
var approvedFiles = map[string]bool{
	"openbounds.go": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "roundcheck",
	Run:  run,
}

var arithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true, token.QUO_ASSIGN: true,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.Pkg.Path(), Scope...) {
		return nil
	}
	for _, f := range pass.Files {
		if approvedFiles[filepath.Base(pass.Fset.Position(f.Pos()).Filename)] {
			continue
		}
		// flagged tracks reported expressions so a nested endpoint term
		// produces one finding at the outermost arithmetic node.
		flagged := make(map[ast.Node]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if !arithOps[n.Op] || flagged[n] || !isFloat(pass.TypesInfo.TypeOf(n.X)) {
					return true
				}
				if ep, ok := endpointTerm(pass.TypesInfo, n); ok {
					pass.Reportf(n.OpPos, "raw float %s on interval endpoint %s; use internal/interval outward-rounded ops or the openbounds helpers", n.Op, ep)
					markSubtrees(flagged, n)
				}
			case *ast.AssignStmt:
				if !arithOps[n.Tok] || len(n.Lhs) != 1 || !isFloat(pass.TypesInfo.TypeOf(n.Lhs[0])) {
					return true
				}
				if ep, ok := endpointExpr(pass.TypesInfo, n.Lhs[0]); ok {
					pass.Reportf(n.TokPos, "raw float %s on interval endpoint %s; use internal/interval outward-rounded ops or the openbounds helpers", n.Tok, ep)
				}
			}
			return true
		})
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// markSubtrees records every arithmetic node below n so nested binary
// expressions are not re-reported.
func markSubtrees(flagged map[ast.Node]bool, n ast.Node) {
	ast.Inspect(n, func(child ast.Node) bool {
		if b, ok := child.(*ast.BinaryExpr); ok && arithOps[b.Op] {
			flagged[b] = true
		}
		return true
	})
}

// endpointTerm reports whether any term of the arithmetic expression n
// (recursing through parentheses, unary minus, nested arithmetic, and
// call arguments) is endpoint-shaped, returning its printed form.
func endpointTerm(info *types.Info, n ast.Expr) (string, bool) {
	switch n := ast.Unparen(n).(type) {
	case *ast.BinaryExpr:
		if ep, ok := endpointTerm(info, n.X); ok {
			return ep, true
		}
		return endpointTerm(info, n.Y)
	case *ast.UnaryExpr:
		return endpointTerm(info, n.X)
	case *ast.CallExpr:
		for _, arg := range n.Args {
			if ep, ok := endpointTerm(info, arg); ok {
				return ep, true
			}
		}
		return "", false
	default:
		return endpointExpr(info, n)
	}
}

// endpointExpr reports whether e directly denotes an interval endpoint:
// iv.Lo / iv.Hi on an interval.Interval, lit.B on a tnf.Lit or
// engine.CertBound, or an index into a field/variable named lo or hi.
func endpointExpr(info *types.Info, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		pkgPath, typeName := analysis.NamedTypeOrigin(info.TypeOf(e.X))
		switch e.Sel.Name {
		case "Lo", "Hi":
			if typeName == "Interval" && analysis.PathMatches(pkgPath, "internal/interval") {
				return types.ExprString(e), true
			}
		case "B":
			if (typeName == "Lit" && analysis.PathMatches(pkgPath, "internal/tnf")) ||
				(typeName == "CertBound" && analysis.PathMatches(pkgPath, "internal/engine")) {
				return types.ExprString(e), true
			}
		}
	case *ast.IndexExpr:
		if name := baseName(e.X); (name == "lo" || name == "hi") && isFloat(info.TypeOf(e)) {
			return types.ExprString(e), true
		}
	}
	return "", false
}

// baseName returns the final identifier of an expression like s.lo or
// lo ("" otherwise).
func baseName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
