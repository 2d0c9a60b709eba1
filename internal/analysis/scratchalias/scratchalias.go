// Package scratchalias flags reused scratch buffers that escape their
// owner — the aliasing-corruption class PR 8 fixed in the ic3icp cube
// widener: a candidate built in a pooled scratch slice was returned to
// a caller, and the next reuse of the pool silently rewrote the
// caller's cube.
//
// A *scratch field* is any slice-typed struct field whose name contains
// "scratch" (case-insensitive) — the repo's naming convention for
// pooled, reused-per-call buffers.  The analyzer runs a forward taint
// analysis over the function's CFG: reading a scratch field (typically
// `buf := ch.scratch[:0]`) taints the destination, and taint propagates
// through slicing and `append` onto a tainted base.  Taint is laundered
// by materializing fresh backing: `append(T(nil), x...)`,
// `append([]T{}, x...)`, or any ordinary function call (callees are
// trusted to copy — the analysis is intra-procedural).
//
// A tainted value may be written back into a scratch field (that is the
// pooling idiom) but must not otherwise escape.  Flagged escapes:
//
//   - returning a tainted slice (the PR 8 shape);
//   - storing a tainted slice into a non-scratch field;
//   - storing a tainted slice into a map or slice element.
//
// Intentional loans — a helper documented to return a buffer "valid
// until the next call" — carry a //lint:allow scratchalias pragma whose
// reason states the loan's validity window.
package scratchalias

import (
	"go/ast"
	"go/types"
	"strings"

	"icpic3/internal/analysis"
	"icpic3/internal/analysis/cfg"
	"icpic3/internal/analysis/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "scratchalias",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, cfg.FuncDecl(fd))
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkBody(pass, cfg.New("lit", fl.Body))
			}
			return true
		})
	}
	return nil
}

// taint is the forward may-taint fact: local variables currently
// aliasing a scratch buffer.  nil is top (unreached).
type taint map[types.Object]bool

func (t taint) clone() taint {
	c := make(taint, len(t))
	for k := range t {
		c[k] = true
	}
	return c
}

type taintProblem struct {
	pass *analysis.Pass
}

func (p *taintProblem) Direction() dataflow.Direction { return dataflow.Forward }
func (p *taintProblem) Boundary() taint               { return taint{} }
func (p *taintProblem) Top() taint                    { return nil }

// Meet is union: taint on any incoming path taints the join (a may-
// analysis — one aliasing path is enough to corrupt).
func (p *taintProblem) Meet(a, b taint) taint {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.clone()
	for k := range b {
		out[k] = true
	}
	return out
}

func (p *taintProblem) Equal(a, b taint) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func (p *taintProblem) Transfer(b *cfg.Block, in taint) taint {
	if in == nil {
		return nil
	}
	out := in.clone()
	for _, n := range b.Nodes {
		p.transferNode(n, out)
	}
	return out
}

// transferNode updates taint for the assignments in one node.
func (p *taintProblem) transferNode(n ast.Node, fact taint) {
	analysis.InspectCFGNode(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.AssignStmt:
			p.transferAssign(c, fact)
		case *ast.ValueSpec:
			for i, name := range c.Names {
				if i < len(c.Values) {
					p.assignIdent(name, p.tainted(c.Values[i], fact), fact)
				}
			}
		}
		return true
	})
}

func (p *taintProblem) transferAssign(as *ast.AssignStmt, fact taint) {
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			t := p.tainted(as.Rhs[i], fact)
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				p.assignIdent(id, t, fact)
			}
		}
		return
	}
	// multi-value rhs (call, map read): results are never scratch
	for _, lhs := range as.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			p.assignIdent(id, false, fact)
		}
	}
}

func (p *taintProblem) assignIdent(id *ast.Ident, tainted bool, fact taint) {
	obj := p.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = p.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	if tainted {
		fact[obj] = true
	} else {
		delete(fact, obj)
	}
}

// tainted reports whether evaluating e yields a scratch-aliasing slice
// under the current fact.
func (p *taintProblem) tainted(e ast.Expr, fact taint) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := p.pass.TypesInfo.Uses[e]
		return obj != nil && fact[obj]
	case *ast.SelectorExpr:
		return p.scratchField(e)
	case *ast.SliceExpr:
		return p.tainted(e.X, fact)
	case *ast.CallExpr:
		return p.taintedCall(e, fact)
	}
	return false
}

// taintedCall handles the two call forms that do not launder: append
// onto a tainted base, and type conversions (a slice conversion keeps
// the backing array).
func (p *taintProblem) taintedCall(call *ast.CallExpr, fact taint) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
		if _, isBuiltin := p.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			return p.tainted(call.Args[0], fact)
		}
	}
	if tv, ok := p.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return p.tainted(call.Args[0], fact)
	}
	return false
}

// scratchField reports whether sel reads a slice-typed struct field
// whose name contains "scratch".
func (p *taintProblem) scratchField(sel *ast.SelectorExpr) bool {
	selection, ok := p.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return false
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || !strings.Contains(strings.ToLower(field.Name()), "scratch") {
		return false
	}
	_, isSlice := field.Type().Underlying().(*types.Slice)
	return isSlice
}

// checkBody solves the taint problem over one function graph and
// reports tainted escapes.
func checkBody(pass *analysis.Pass, g *cfg.Graph) {
	prob := &taintProblem{pass: pass}
	res := dataflow.Solve[taint](g, prob)
	reach := g.Reachable()
	for _, b := range g.Blocks {
		if !reach[b.Index] {
			continue
		}
		fact := res.In[b.Index]
		if fact == nil {
			continue
		}
		fact = fact.clone()
		for _, n := range b.Nodes {
			checkNode(pass, prob, n, fact)
			prob.transferNode(n, fact)
		}
	}
}

func checkNode(pass *analysis.Pass, prob *taintProblem, n ast.Node, fact taint) {
	analysis.InspectCFGNode(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.ReturnStmt:
			for _, r := range c.Results {
				if prob.tainted(r, fact) {
					pass.Reportf(r.Pos(),
						"returns a slice aliasing a reused scratch buffer; the next reuse corrupts the caller's copy — materialize with append(T(nil), ...) first")
				}
			}
		case *ast.AssignStmt:
			checkEscapeStores(pass, prob, c, fact)
		}
		return true
	})
}

// checkEscapeStores flags tainted rhs values stored somewhere that
// outlives the scratch reuse: a non-scratch field, or a map/slice
// element.  Storing back into a scratch field is the pooling idiom.
func checkEscapeStores(pass *analysis.Pass, prob *taintProblem, as *ast.AssignStmt, fact taint) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		if !prob.tainted(as.Rhs[i], fact) {
			continue
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if selection, ok := pass.TypesInfo.Selections[l]; ok && selection.Kind() == types.FieldVal {
				if prob.scratchField(l) {
					continue // scratch -> scratch: the pooling idiom
				}
				pass.Reportf(as.Pos(),
					"stores a slice aliasing a reused scratch buffer into field %s; the next reuse corrupts it — materialize with append(T(nil), ...) first", l.Sel.Name)
			}
		case *ast.IndexExpr:
			pass.Reportf(as.Pos(),
				"stores a slice aliasing a reused scratch buffer into a container element; the next reuse corrupts it — materialize with append(T(nil), ...) first")
		}
	}
}
