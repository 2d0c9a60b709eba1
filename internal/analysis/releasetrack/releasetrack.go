// Package releasetrack flags resources acquired on a path but not
// released on every control-flow exit — the goroutine-leak class once
// found in the attempt supervisor.  Two shapes are checked:
//
//   - time.NewTicker / time.NewTimer: the returned value must reach a
//     `.Stop()` on every normal exit path (a `defer x.Stop()` counts,
//     and panic exits are exempt: a panicking path is not the leak's
//     steady state);
//
//   - goroutine-waiter channels: a channel made in the function,
//     waited on inside a `go` statement's subtree, and closed by the
//     function body on at least one path must be closed on EVERY normal
//     exit path — a path that skips the close parks the spawned
//     goroutine forever.  Channels the function itself receives from
//     are exempt (there the goroutine is the closer, not the waiter).
//
// Both are backward must-release dataflow problems over the
// function's CFG: a release fact flows from the exits toward the
// acquisition site, intersecting at branch points, and the acquisition
// is reported when some path to exit lacks the release.
package releasetrack

import (
	"fmt"
	"go/ast"
	"go/types"

	"icpic3/internal/analysis"
	"icpic3/internal/analysis/cfg"
	"icpic3/internal/analysis/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "releasetrack",
	Doc:  "flags resources acquired on a path but not released on every exit (leaked goroutines, unstopped tickers)",
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
		// function literals are separate release scopes: a ticker made
		// inside a goroutine body must be stopped by that body
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkBody(pass, cfg.New("lit", fl.Body))
			}
			return true
		})
	}
	return nil
}

// acquisition is one tracked resource: the variable it is bound to, the
// node that acquires it, and how it is released.
type acquisition struct {
	obj   types.Object // the ticker/timer/channel variable
	block *cfg.Block   // block containing the acquire node
	node  int          // index of the acquire node within the block
	pos   ast.Node     // report anchor
	what  string       // `time.Ticker "t"`, `goroutine-waiter channel "done"`
	verb  string       // "Stop()", "close()"
}

// checkBody runs the backward must-release analysis over one function
// graph and reports acquisitions not released on every normal exit.
func checkBody(pass *analysis.Pass, g *cfg.Graph) {
	acqs := findAcquisitions(pass, g)
	if len(acqs) == 0 {
		return
	}
	tracked := make(map[types.Object]bool, len(acqs))
	for _, a := range acqs {
		tracked[a.obj] = true
	}
	prob := &releaseProblem{pass: pass, tracked: tracked}
	res := dataflow.Solve[relFact](g, prob)
	reach := g.Reachable()
	for _, a := range acqs {
		if !reach[a.block.Index] {
			continue
		}
		// fact just after the acquire node: fold the releases of the
		// nodes that follow it in its own block onto the block-exit fact
		fact := res.Out[a.block.Index]
		if fact == nil {
			continue
		}
		fact = fact.clone()
		for i := len(a.block.Nodes) - 1; i > a.node; i-- {
			prob.transferNode(a.block.Nodes[i], fact)
		}
		if !fact[a.obj] {
			pass.Reportf(a.pos.Pos(), "%s is not released with %s on every exit path (the path that skips it leaks the resource)",
				a.what, a.verb)
		}
	}
}

// findAcquisitions scans the graph for ticker/timer constructions and
// qualifying goroutine-waiter channels.
func findAcquisitions(pass *analysis.Pass, g *cfg.Graph) []acquisition {
	var acqs []acquisition
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				continue
			}
			lhs, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[lhs]
			if obj == nil {
				obj = pass.TypesInfo.Uses[lhs]
			}
			if obj == nil {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			callee := analysis.CalleeObject(pass.TypesInfo, call)
			switch {
			case analysis.IsPkgFunc(callee, "time", "NewTicker"),
				analysis.IsPkgFunc(callee, "time", "NewTimer"):
				acqs = append(acqs, acquisition{
					obj: obj, block: b, node: i, pos: as,
					what: fmt.Sprintf("time.%s %q", callee.Name()[3:], lhs.Name), verb: "Stop()",
				})
			case isMakeChan(pass, call):
				if waiterChannel(pass, g, obj) {
					acqs = append(acqs, acquisition{
						obj: obj, block: b, node: i, pos: as,
						what: fmt.Sprintf("goroutine-waiter channel %q", lhs.Name), verb: "close()",
					})
				}
			}
		}
	}
	return acqs
}

func isMakeChan(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	_, isChan := pass.TypesInfo.TypeOf(call).Underlying().(*types.Chan)
	return isChan
}

// waiterChannel reports whether obj qualifies as a goroutine-waiter
// channel in graph g: it appears inside a `go` statement's subtree
// (some spawned goroutine waits on it), the function body closes it on
// at least one path (the function is the releaser), and the body never
// receives from it (then the goroutine is the closer instead).
func waiterChannel(pass *analysis.Pass, g *cfg.Graph, obj types.Object) bool {
	inGo, closed, received := false, false, false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if gs, ok := n.(*ast.GoStmt); ok && mentionsObj(pass, gs, obj) {
				inGo = true
			}
			analysis.InspectCFGNode(n, func(c ast.Node) bool {
				switch c := c.(type) {
				case *ast.CallExpr:
					if isCloseOf(pass, c, obj) {
						closed = true
					}
				case *ast.UnaryExpr:
					if c.Op.String() == "<-" && usesObj(pass, c.X, obj) {
						received = true
					}
				}
				return true
			})
		}
	}
	return inGo && closed && !received
}

// mentionsObj reports whether the subtree (function literals included)
// references obj.
func mentionsObj(pass *analysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func usesObj(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}

func isCloseOf(pass *analysis.Pass, call *ast.CallExpr, obj types.Object) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" || len(call.Args) != 1 {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	return usesObj(pass, call.Args[0], obj)
}

// relFact is the backward must-release fact: the set of tracked objects
// released on every path from this point to exit.  nil is top.
type relFact map[types.Object]bool

func (f relFact) clone() relFact {
	c := make(relFact, len(f))
	for k := range f {
		c[k] = true
	}
	return c
}

type releaseProblem struct {
	pass    *analysis.Pass
	tracked map[types.Object]bool
}

func (p *releaseProblem) Direction() dataflow.Direction { return dataflow.Backward }
func (p *releaseProblem) Boundary() relFact             { return relFact{} }
func (p *releaseProblem) Top() relFact                  { return nil }

func (p *releaseProblem) Meet(a, b relFact) relFact {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := relFact{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func (p *releaseProblem) Equal(a, b relFact) bool {
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

func (p *releaseProblem) Transfer(b *cfg.Block, out relFact) relFact {
	if b.Panics {
		// a panicking exit is exempt: every release holds vacuously, so
		// the meet at branch points ignores the panic path
		all := relFact{}
		for obj := range p.tracked {
			all[obj] = true
		}
		return all
	}
	if out == nil {
		return nil
	}
	in := out.clone()
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		p.transferNode(b.Nodes[i], in)
	}
	return in
}

// transferNode adds the releases performed by one node.  A DeferStmt
// release counts like an immediate one: registering the defer on a path
// guarantees the release on every continuation of that path.
func (p *releaseProblem) transferNode(n ast.Node, fact relFact) {
	analysis.InspectCFGNode(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		// close(ch)
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
			if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := p.pass.TypesInfo.Uses[arg]; obj != nil && p.tracked[obj] {
					fact[obj] = true
				}
			}
			return true
		}
		// x.Stop()
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Stop" {
			return true
		}
		if recv, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if obj := p.pass.TypesInfo.Uses[recv]; obj != nil && p.tracked[obj] {
				fact[obj] = true
			}
		}
		return true
	})
}
