// Package releasetrack flags a time.NewTicker or time.NewTimer whose
// value does not reach a `.Stop()` on every normal exit path (a `defer
// x.Stop()` counts, and panic exits are exempt: a panicking path is not
// the leak's steady state).  Before Go 1.23 (go.mod says go 1.22) an
// unstopped ticker is never garbage collected, and an unstopped timer
// lives until it fires.
//
// This is a backward must-release dataflow problem over the function's
// CFG: a release fact flows from the exits toward the acquisition site,
// intersecting at branch points, and the acquisition is reported when
// some path to exit lacks the release.
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

// acquisition is one tracked resource: the variable it is bound to and
// the node that acquires it.
type acquisition struct {
	obj   types.Object // the ticker/timer variable
	block *cfg.Block   // block containing the acquire node
	node  int          // index of the acquire node within the block
	pos   ast.Node     // report anchor
	what  string       // `time.Ticker "t"`
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
			pass.Reportf(a.pos.Pos(), "%s is not released with Stop() on every exit path (the path that skips it leaks the resource)",
				a.what)
		}
	}
}

// findAcquisitions scans the graph for ticker/timer constructions.
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
			if analysis.IsPkgFunc(callee, "time", "NewTicker") || analysis.IsPkgFunc(callee, "time", "NewTimer") {
				acqs = append(acqs, acquisition{
					obj: obj, block: b, node: i, pos: as,
					what: fmt.Sprintf("time.%s %q", callee.Name()[3:], lhs.Name),
				})
			}
		}
	}
	return acqs
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
