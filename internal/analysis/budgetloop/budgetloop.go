// Package budgetloop flags unbounded `for {}` loops in the engine
// packages with an iteration cycle that neither publishes progress nor
// makes bounded descent toward an exit.  A budget's stall heartbeat
// (internal/engine) tells slow-but-alive runs from wedged ones purely by
// the engine's Budget.Tick calls, and cooperative cancellation only
// works if long loops poll engine.Budget or the solver Stop hook — a
// loop that can cycle forever without either is invisible to
// supervision and unkillable without process death.
//
// The check is path-sensitive over the function's CFG: the loop is
// accepted only if every cycle through its header crosses a *breaking
// block*, which is one of
//
//   - a block containing a supervision poll (Budget.Tick,
//     Budget.Expired, a Stop-hook call — directly or through
//     same-package helpers);
//   - a bounded-descent step: an increment/decrement or +=/-= of a
//     variable that some exit guard of the loop tests — so the cycle
//     provably moves the exit test's operand (1-UIP conflict loops
//     consuming a counter, trail walks with an index test) — or that a
//     comparison guarding entry into a poll block tests (the
//     amortized-poll idiom `n++; if n%1024 == 0 { tick() }`: stepping
//     the poll counter is progress toward the next poll).
//
// A cycle avoiding all three — e.g. a `continue` path that skips both
// the poll and the descent step — is exactly an unsupervisable
// iteration and is reported.  A loop whose bound is real but beyond the
// analysis (structural recursion through data, shrinking heaps) may
// carry a //lint:allow budgetloop <why bounded> pragma.
package budgetloop

import (
	"go/ast"
	"go/token"
	"go/types"

	"icpic3/internal/analysis"
	"icpic3/internal/analysis/cfg"
)

// Scope lists the engine package suffixes whose loops must stay
// supervisable.
var Scope = []string{
	"internal/icp",
	"internal/sat",
	"internal/ic3icp",
	"internal/ic3bool",
	"internal/bmc",
	"internal/kind",
}

var Analyzer = &analysis.Analyzer{
	Name: "budgetloop",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.Pkg.Path(), Scope...) {
		return nil
	}
	idx := analysis.BuildFuncIndex(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGraph(pass, idx, cfg.FuncDecl(fd))
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkGraph(pass, idx, cfg.New("lit", fl.Body))
			}
			return true
		})
	}
	return nil
}

// checkGraph finds the unconditional for-loop headers of one function
// graph and reports those with an unsupervised cycle.
func checkGraph(pass *analysis.Pass, idx analysis.FuncIndex, g *cfg.Graph) {
	reach := g.Reachable()
	for _, h := range g.Blocks {
		if !reach[h.Index] {
			continue
		}
		loop, ok := h.Stmt.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			continue
		}
		scc := loopBlocks(g, h)
		if scc == nil {
			continue // header on no cycle: the body always escapes
		}
		breaking := breakingBlocks(pass, idx, g, scc)
		if hasUnbrokenCycle(g, h, scc, breaking) {
			pass.Reportf(loop.Pos(), "unbounded for loop has an iteration cycle with no Budget.Tick, Budget.Expired, Stop-hook poll, or bounded descent toward an exit; it is invisible to the stall heartbeat")
		}
	}
}

// loopBlocks returns the strongly-connected component of h (the blocks
// on some cycle through or around the header), or nil if h is on no
// cycle.
func loopBlocks(g *cfg.Graph, h *cfg.Block) map[int]bool {
	fwd := reachableFrom(h, false)
	bwd := reachableFrom(h, true)
	scc := make(map[int]bool)
	for i := range fwd {
		if bwd[i] {
			scc[i] = true
		}
	}
	if len(scc) == 0 {
		return nil
	}
	scc[h.Index] = true
	return scc
}

// reachableFrom returns the block indexes reachable from b along succ
// (or pred, when back is set) edges, excluding b itself unless it is on
// a cycle.
func reachableFrom(b *cfg.Block, back bool) map[int]bool {
	seen := make(map[int]bool)
	var stack []*cfg.Block
	edges := func(x *cfg.Block) []*cfg.Block {
		if back {
			return x.Preds
		}
		return x.Succs
	}
	stack = append(stack, edges(b)...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[x.Index] {
			continue
		}
		seen[x.Index] = true
		stack = append(stack, edges(x)...)
	}
	return seen
}

// breakingBlocks computes the loop's breaking blocks: poll blocks and
// bounded-descent steps on exit-guard or poll-guard variables.
func breakingBlocks(pass *analysis.Pass, idx analysis.FuncIndex, g *cfg.Graph, scc map[int]bool) map[int]bool {
	breaking := make(map[int]bool)
	polls := make(map[int]bool)
	for i := range scc {
		b := g.Blocks[i]
		for _, n := range b.Nodes {
			if idx.ContainsCall(pass.TypesInfo, n, func(call *ast.CallExpr) bool {
				return isSupervisionPoll(pass.TypesInfo, call)
			}) {
				polls[i] = true
				break
			}
		}
	}
	for i := range polls {
		breaking[i] = true
	}
	guards := guardVars(pass, g, scc, polls)
	for i := range scc {
		for _, n := range g.Blocks[i].Nodes {
			if descentStep(pass, n, guards) {
				breaking[i] = true
				break
			}
		}
	}
	return breaking
}

// guardVars collects the variables whose stepping counts as progress:
// identifiers in comparison conditions of loop blocks that branch out
// of the loop (exit guards) or into a poll block (amortized-poll
// guards).
func guardVars(pass *analysis.Pass, g *cfg.Graph, scc, polls map[int]bool) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	leaves := func(b *cfg.Block) bool { return !scc[b.Index] }
	for i := range scc {
		b := g.Blocks[i]
		if len(b.Succs) < 2 {
			continue
		}
		qualifies := false
		for _, s := range b.Succs {
			if leaves(s) || polls[s.Index] {
				qualifies = true
				continue
			}
			// a branch target still inside the loop may itself fall
			// straight out (a then-block holding only break/return)
			if len(s.Nodes) <= 1 {
				for _, ss := range s.Succs {
					if leaves(ss) {
						qualifies = true
					}
				}
			}
		}
		if !qualifies {
			continue
		}
		// the branch condition is the block's last node
		cond, ok := b.Nodes[len(b.Nodes)-1].(ast.Expr)
		if !ok || !isComparison(cond) {
			continue
		}
		ast.Inspect(cond, func(c ast.Node) bool {
			if id, ok := c.(*ast.Ident); ok {
				if obj, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
					vars[obj] = true
				}
			}
			return true
		})
	}
	return vars
}

// isComparison reports whether e contains a comparison operator (the
// exit guard shapes: counter == 0, idx < 0, and boolean combinations).
func isComparison(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(c ast.Node) bool {
		if be, ok := c.(*ast.BinaryExpr); ok {
			switch be.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				found = true
			}
		}
		return !found
	})
	return found
}

// descentStep reports whether node n steps (++/--/+=/-=) a variable
// that an exit guard of the loop tests.
func descentStep(pass *analysis.Pass, n ast.Node, guards map[types.Object]bool) bool {
	if len(guards) == 0 {
		return false
	}
	found := false
	analysis.InspectCFGNode(n, func(c ast.Node) bool {
		var target ast.Expr
		switch c := c.(type) {
		case *ast.IncDecStmt:
			target = c.X
		case *ast.AssignStmt:
			if c.Tok == token.ADD_ASSIGN || c.Tok == token.SUB_ASSIGN {
				target = c.Lhs[0]
			}
		}
		if target == nil {
			return !found
		}
		if id, ok := ast.Unparen(target).(*ast.Ident); ok {
			if obj, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && guards[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// hasUnbrokenCycle reports whether some cycle through header h avoids
// every breaking block: delete the breaking blocks from the loop
// subgraph and test whether h can still reach itself.
func hasUnbrokenCycle(g *cfg.Graph, h *cfg.Block, scc, breaking map[int]bool) bool {
	if breaking[h.Index] {
		return false
	}
	seen := make(map[int]bool)
	var stack []*cfg.Block
	push := func(b *cfg.Block) {
		if scc[b.Index] && !breaking[b.Index] && !seen[b.Index] {
			seen[b.Index] = true
			stack = append(stack, b)
		}
	}
	for _, s := range h.Succs {
		if s == h {
			return true // self-loop on an unbroken header
		}
		push(s)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if s == h {
				return true
			}
			push(s)
		}
	}
	return false
}

// isSupervisionPoll recognizes the calls that make a loop supervisable:
// engine.Budget.Tick / Expired, or invoking a func-typed value named
// Stop (the solver stop hook shared by internal/icp and internal/sat
// options).
func isSupervisionPoll(info *types.Info, call *ast.CallExpr) bool {
	if obj := analysis.CalleeObject(info, call); obj != nil {
		if analysis.IsPkgFunc(obj, "internal/engine", "Tick") ||
			analysis.IsPkgFunc(obj, "internal/engine", "Expired") {
			return true
		}
	}
	// Indirect call of a stop hook: s.opts.Stop() or stop().
	fun := ast.Unparen(call.Fun)
	var name string
	switch fun := fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	}
	if name != "Stop" && name != "stop" {
		return false
	}
	t := info.TypeOf(fun)
	if t == nil {
		return false
	}
	_, isFunc := t.Underlying().(*types.Signature)
	return isFunc
}
