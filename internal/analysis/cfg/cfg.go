// Package cfg builds intra-procedural control-flow graphs over go/ast,
// the substrate of the flow-sensitive icplint analyzers (DESIGN.md
// §16).  Like the rest of internal/analysis it is stdlib-only: the
// builder is purely syntactic (no type information), so a graph can be
// built for any parsed function, including analysistest fixtures.
//
// The graph is a list of basic blocks.  Each block carries the
// statements (and controlling expressions) that execute in order when
// the block runs, plus its successor edges.  Conventions:
//
//   - Blocks[0] is the entry block, Exit is the single synthetic exit;
//     every return statement edges to it, as does falling off the end
//     of the body.
//   - A block ending in a two-way branch (if condition, for condition,
//     range step) lists the "taken"/body successor first and the
//     fall-through/exit successor second.
//   - A call to the predeclared panic terminates its block with an edge
//     to Exit and marks the block Panics; analyses that reason about
//     "normal" exits (e.g. must-release) can exempt those paths.
//   - Function literals are NOT inlined: a FuncLit appears inside some
//     node of the enclosing graph, and callers build a separate graph
//     for its body when they want to analyze it.
//
// The builder understands the full statement language used in this
// repo: if/else, all for/range forms, switch and type switch with
// fallthrough, select, labeled break/continue/goto, defer, and go.
package cfg

import (
	"go/ast"
	"go/token"
)

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Name labels the graph in the golden-file test output (the
	// function's name, "lit" for literals).
	Name string
	// Blocks holds every block, entry first, in creation order;
	// Block.Index is the position here.
	Blocks []*Block
	// Exit is the synthetic exit block every normal return reaches.
	Exit *Block
}

// Block is one basic block.
type Block struct {
	Index int
	// Kind names the construct that created the block ("entry", "exit",
	// "if.then", "for.header", ...), for the golden-file test output and
	// debugging.
	Kind string
	// Nodes are the statements and controlling expressions of the block
	// in execution order.  Controlling expressions (if/for conditions,
	// switch tags) appear as bare ast.Expr entries after the statements
	// that precede them.
	Nodes []ast.Node
	// Succs are the successor edges (taken/body branch first).
	Succs []*Block
	// Preds are the predecessor edges, filled by the builder.
	Preds []*Block
	// Stmt points at the loop statement this block heads (*ast.ForStmt
	// or *ast.RangeStmt for "for.header"/"range.header" blocks), so
	// analyzers can map a syntactic loop to its header block.
	Stmt ast.Stmt
	// Panics marks a block terminated by a call to the predeclared
	// panic; its edge to Exit is an abnormal exit.
	Panics bool
}

// New builds the graph of one function body.  name only labels the
// graph in test output.
func New(name string, body *ast.BlockStmt) *Graph {
	g := &Graph{Name: name}
	b := &builder{g: g}
	entry := b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	b.cur = entry
	b.stmtList(body.List)
	// falling off the end of the body returns
	b.jump(g.Exit)
	b.resolveGotos()
	return g
}

// FuncDecl builds the graph of a declared function; nil for bodyless
// declarations.
func FuncDecl(fd *ast.FuncDecl) *Graph {
	if fd.Body == nil {
		return nil
	}
	return New(fd.Name.Name, fd.Body)
}

// Reachable returns the set of blocks reachable from the entry,
// indexed by Block.Index.  Unreachable blocks (code after return,
// detached break targets) still exist in Blocks so their statements
// are not silently invisible, but path-sensitive analyzers skip them.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	if len(g.Blocks) > 0 {
		walk(g.Blocks[0])
	}
	return seen
}

// builder threads the construction state through the statement walk.
type builder struct {
	g   *Graph
	cur *Block // current block; a fresh detached block after a terminator

	// targets is the stack of enclosing break/continue targets.
	targets []targetFrame
	// labels maps label names to their blocks, for goto.
	labels map[string]*Block
	// pendingGotos are goto statements seen before their label.
	pendingGotos []pendingGoto
}

type targetFrame struct {
	label      string // enclosing statement's label, "" when unlabeled
	breakTo    *Block // nil when break is not legal here
	continueTo *Block // nil for switch/select frames
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edge records from -> to.
func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an edge to target and detaches cur
// (the caller starts a new block for any following statements).
func (b *builder) jump(target *Block) {
	b.edge(b.cur, target)
	b.cur = b.newBlock("unreach")
}

// startBlock makes blk current, linking the old current block to it
// (fall-through).
func (b *builder) startBlock(blk *Block) {
	b.edge(b.cur, blk)
	b.cur = blk
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt translates one statement.  label is the label attached to a
// loop/switch/select statement, "" otherwise.
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// the label block is a join point: continue/goto land here for
		// loops; for other statements it simply names the position
		lb := b.newBlock("label." + s.Label.Name)
		b.startBlock(lb)
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = lb
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlock := b.cur
		after := b.newBlock("if.after")
		then := b.newBlock("if.then")
		b.edge(condBlock, then)
		b.cur = then
		b.stmtList(s.Body.List)
		b.edge(b.cur, after)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(condBlock, els)
			b.cur = els
			b.stmt(s.Else, "")
			b.edge(b.cur, after)
		} else {
			b.edge(condBlock, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		header := b.newBlock("for.header")
		header.Stmt = s
		b.startBlock(header)
		if s.Cond != nil {
			b.add(s.Cond)
		}
		after := b.newBlock("for.after")
		var post *Block
		continueTo := header
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, header)
			continueTo = post
		}
		body := b.newBlock("for.body")
		b.edge(header, body)
		if s.Cond != nil {
			b.edge(header, after)
		}
		b.targets = append(b.targets, targetFrame{label: label, breakTo: after, continueTo: continueTo})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, continueTo)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.RangeStmt:
		header := b.newBlock("range.header")
		header.Stmt = s
		header.Nodes = append(header.Nodes, s)
		b.startBlock(header)
		after := b.newBlock("range.after")
		body := b.newBlock("range.body")
		b.edge(header, body)
		b.edge(header, after)
		b.targets = append(b.targets, targetFrame{label: label, breakTo: after, continueTo: header})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, header)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, label, func(cc *ast.CaseClause) []ast.Node {
			var nodes []ast.Node
			for _, e := range cc.List {
				nodes = append(nodes, e)
			}
			return nodes
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, label, func(cc *ast.CaseClause) []ast.Node {
			var nodes []ast.Node
			for _, e := range cc.List {
				nodes = append(nodes, e)
			}
			return nodes
		})

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock("select.after")
		b.targets = append(b.targets, targetFrame{label: label, breakTo: after})
		hasClause := false
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			hasClause = true
			kind := "select.comm"
			if cc.Comm == nil {
				kind = "select.default"
			}
			clause := b.newBlock(kind)
			b.edge(head, clause)
			b.cur = clause
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, after)
		}
		b.targets = b.targets[:len(b.targets)-1]
		if !hasClause {
			// select {} blocks forever: no normal successor
			b.cur = b.newBlock("unreach")
		} else {
			b.cur = after
		}

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.cur.Panics = true
			b.jump(b.g.Exit)
		}

	default:
		// Assign, Decl, IncDec, Send, Go, Defer, Empty: straight-line
		b.add(s)
	}
}

// caseClauses translates the shared switch/type-switch clause
// structure: every clause is entered from the switch head; fallthrough
// chains a clause to the next one.
func (b *builder) caseClauses(list []ast.Stmt, label string, guards func(*ast.CaseClause) []ast.Node) {
	head := b.cur
	after := b.newBlock("switch.after")
	b.targets = append(b.targets, targetFrame{label: label, breakTo: after})
	hasDefault := false
	var blocks []*Block
	var clauses []*ast.CaseClause
	for _, c := range list {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		kind := "case"
		if cc.List == nil {
			kind = "case.default"
			hasDefault = true
		}
		blk := b.newBlock(kind)
		blk.Nodes = append(blk.Nodes, guards(cc)...)
		b.edge(head, blk)
		blocks = append(blocks, blk)
		clauses = append(clauses, cc)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue // the edge below models it
			}
			b.stmt(st, "")
		}
		if fallsThrough && i+1 < len(blocks) {
			b.edge(b.cur, blocks[i+1])
			b.cur = b.newBlock("unreach")
		} else {
			b.edge(b.cur, after)
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	if !hasDefault {
		b.edge(head, after)
	}
	b.cur = after
}

// branch translates break/continue/goto.
func (b *builder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.breakTo == nil {
				continue
			}
			if label == "" || t.label == label {
				b.add(s)
				b.jump(t.breakTo)
				return
			}
		}
	case token.CONTINUE:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.continueTo == nil {
				continue
			}
			if label == "" || t.label == label {
				b.add(s)
				b.jump(t.continueTo)
				return
			}
		}
	case token.GOTO:
		b.add(s)
		from := b.cur
		b.cur = b.newBlock("unreach")
		if target, ok := b.labels[label]; ok {
			b.edge(from, target)
		} else {
			b.pendingGotos = append(b.pendingGotos, pendingGoto{from: from, label: label})
		}
		return
	}
	// fallthrough outside a switch, or an unresolvable label: record the
	// statement and keep going (the type checker rejects such programs)
	b.add(s)
}

func (b *builder) resolveGotos() {
	for _, pg := range b.pendingGotos {
		if target, ok := b.labels[pg.label]; ok {
			b.edge(pg.from, target)
		}
	}
	b.pendingGotos = nil
}

// isPanicCall reports whether e is a call of the predeclared panic.
// Syntactic: a local function named panic would be misidentified, which
// this repo does not have (and the consequence is only a conservative
// extra exit edge).
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
