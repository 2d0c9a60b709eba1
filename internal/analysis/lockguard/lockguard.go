// Package lockguard enforces the repo's mutex annotation convention
// with a flow-sensitive lock-set analysis (DESIGN.md §16).
//
// A struct field whose line (or doc) comment contains
//
//	// guarded-by: <mutex-field>
//
// may only be read or written while the named sibling mutex is held.
// The analyzer tracks the set of mutexes held along every control-flow
// path (a forward must-analysis over the function's CFG: Lock adds,
// Unlock removes, branch joins intersect) and reports any access to a
// guarded field whose guard is not in the lock-set at that point.
//
// Two conventions thread lock ownership across function boundaries,
// both already established in internal/service:
//
//   - a method whose name ends in "Locked" is entered with every
//     annotated guard of its receiver held (its doc comment should say
//     "caller holds mu"), and conversely a call to such a method
//     requires the receiver's guards in the caller's lock-set;
//   - `defer mu.Unlock()` keeps the mutex held to every exit.
//
// Function literals executed synchronously at their occurrence (an
// immediately-invoked literal, or a literal passed as a call argument
// in the same statement, e.g. a sort.Slice comparator) inherit the
// lock-set of the point they occur at; literals spawned with `go` or
// stored for later run with an empty lock-set.
package lockguard

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"icpic3/internal/analysis"
	"icpic3/internal/analysis/cfg"
	"icpic3/internal/analysis/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Run:  run,
}

const annotation = "guarded-by:"

// guardInfo records one annotated field.
type guardInfo struct {
	field *types.Var // the annotated field
	guard string     // name of the sibling mutex field
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	lg := &checker{pass: pass, guards: guards, typeGuards: make(map[*types.Named][]string)}
	for f, g := range guards {
		named := namedOwner(f)
		if named == nil {
			continue
		}
		if !contains(lg.typeGuards[named], g.guard) {
			lg.typeGuards[named] = append(lg.typeGuards[named], g.guard)
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := cfg.FuncDecl(fd)
			lg.checkFunc(g, lg.entryFact(fd))
		}
	}
	return nil
}

// collectGuards parses the `// guarded-by: <mutex>` annotations of
// every struct declared in the package.
func collectGuards(pass *analysis.Pass) map[*types.Var]guardInfo {
	guards := make(map[*types.Var]guardInfo)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				guard := annotationOf(field)
				if guard == "" {
					continue
				}
				for _, name := range field.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guards[obj] = guardInfo{field: obj, guard: guard}
					}
				}
			}
			return true
		})
	}
	return guards
}

// annotationOf extracts the guard name from a field's comments.  The
// marker may appear anywhere in the doc or line comment, so it can ride
// along an existing description: `n int // guarded-by: mu; hit count`.
func annotationOf(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			i := strings.Index(c.Text, annotation)
			if i < 0 {
				continue
			}
			rest := strings.TrimLeft(c.Text[i+len(annotation):], " \t")
			if j := strings.IndexAny(rest, " \t;,"); j >= 0 {
				rest = rest[:j]
			}
			if rest != "" {
				return rest
			}
		}
	}
	return ""
}

// namedOwner resolves the named struct type a field belongs to.
func namedOwner(f *types.Var) *types.Named {
	// the field's parent scope does not lead back to the type; search
	// the package scope for a named struct that owns this field object
	pkg := f.Pkg()
	if pkg == nil {
		return nil
	}
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				return named
			}
		}
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// lockSet is the dataflow fact: the canonical keys of the mutexes held
// on every path.  nil is the top element (block not reached yet).
type lockSet map[string]bool

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// checker carries the per-package state.
type checker struct {
	pass       *analysis.Pass
	guards     map[*types.Var]guardInfo
	typeGuards map[*types.Named][]string // named struct -> guard field names
}

// entryFact computes the lock-set a declared function starts with: the
// receiver's annotated guards for *Locked methods, empty otherwise.
func (lg *checker) entryFact(fd *ast.FuncDecl) lockSet {
	fact := lockSet{}
	if !strings.HasSuffix(fd.Name.Name, "Locked") || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fact
	}
	names := fd.Recv.List[0].Names
	if len(names) == 0 {
		return fact
	}
	recv, ok := lg.pass.TypesInfo.Defs[names[0]].(*types.Var)
	if !ok {
		return fact
	}
	named := namedRecvType(recv.Type())
	for _, guard := range lg.typeGuards[named] {
		fact[objKey(recv)+"."+guard] = true
	}
	return fact
}

func namedRecvType(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// objKey is the canonical root of a lock path: unique per object within
// a run, never shown to the user.
func objKey(obj types.Object) string {
	return fmt.Sprintf("o%d", obj.Pos())
}

// lockProblem is the forward must-hold dataflow problem.
type lockProblem struct {
	lg    *checker
	entry lockSet
}

func (p *lockProblem) Direction() dataflow.Direction { return dataflow.Forward }
func (p *lockProblem) Boundary() lockSet             { return p.entry }
func (p *lockProblem) Top() lockSet                  { return nil }

func (p *lockProblem) Meet(a, b lockSet) lockSet {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := lockSet{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func (p *lockProblem) Equal(a, b lockSet) bool {
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

func (p *lockProblem) Transfer(b *cfg.Block, in lockSet) lockSet {
	if in == nil {
		return nil
	}
	out := in.clone()
	for _, n := range b.Nodes {
		p.lg.transferNode(n, out)
	}
	return out
}

// transferNode applies the lock effects of one node to the set in
// place.  `defer mu.Unlock()` is a no-op: the mutex stays held to exit.
func (lg *checker) transferNode(n ast.Node, set lockSet) {
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	analysis.InspectCFGNode(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		mexpr, op := lg.mutexOp(call)
		if mexpr == nil {
			return true
		}
		key := lg.exprKey(mexpr)
		if key == "" {
			return true
		}
		switch op {
		case "Lock", "RLock":
			set[key] = true
		case "Unlock", "RUnlock":
			delete(set, key)
		}
		return true
	})
}

// mutexOp recognizes a sync.Mutex / sync.RWMutex method call and
// returns the mutex expression and operation name.
func (lg *checker) mutexOp(call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	obj, ok := lg.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, ""
	}
	name := obj.Name()
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, ""
	}
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil, ""
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return nil, ""
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return sel.X, name
	}
	return nil, ""
}

// exprKey canonicalizes a selector chain rooted at an identifier:
// s.admission.mu -> "o<pos(s)>.admission.mu".  Non-chain expressions
// (map index, call result) yield "" and are not tracked.
func (lg *checker) exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := lg.pass.TypesInfo.Uses[e]; obj != nil {
			return objKey(obj)
		}
		if obj := lg.pass.TypesInfo.Defs[e]; obj != nil {
			return objKey(obj)
		}
	case *ast.SelectorExpr:
		base := lg.exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// exprText renders a selector chain for diagnostics (s.jobs, a.level).
func exprText(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprText(e.X)
		if base == "" {
			return e.Sel.Name
		}
		return base + "." + e.Sel.Name
	}
	return "?"
}

// litWork queues a function literal for analysis with its entry fact.
type litWork struct {
	lit   *ast.FuncLit
	entry lockSet
}

// checkFunc solves the lock-set problem over one graph and reports
// guarded accesses whose guard is not held, then analyzes the function
// literals it encountered.
func (lg *checker) checkFunc(g *cfg.Graph, entry lockSet) {
	prob := &lockProblem{lg: lg, entry: entry}
	res := dataflow.Solve[lockSet](g, prob)
	reach := g.Reachable()
	var lits []litWork
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
			lg.checkNode(n, fact)
			lits = append(lits, lg.literalWork(n, fact)...)
			lg.transferNode(n, fact)
		}
	}
	for _, lw := range lits {
		lg.checkFunc(cfg.New("lit", lw.lit.Body), lw.entry)
	}
}

// literalWork decides the entry fact of each literal in the node:
// synchronous-at-occurrence literals (immediately invoked, or passed
// as a call argument) inherit the current set; `go` literals and
// stored literals start empty.
func (lg *checker) literalWork(n ast.Node, fact lockSet) []litWork {
	var out []litWork
	async := false
	if _, ok := n.(*ast.GoStmt); ok {
		async = true
	}
	stored := false
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, rhs := range as.Rhs {
			if _, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
				stored = true
			}
		}
	}
	for _, lit := range analysis.FuncLits(n) {
		entry := lockSet{}
		if !async && !stored {
			entry = fact.clone()
		}
		out = append(out, litWork{lit: lit, entry: entry})
	}
	return out
}

// checkNode reports guarded accesses and under-locked *Locked calls in
// one node given the lock-set before the node runs.
func (lg *checker) checkNode(n ast.Node, fact lockSet) {
	analysis.InspectCFGNode(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.SelectorExpr:
			lg.checkSelector(c, fact)
		case *ast.CallExpr:
			lg.checkLockedCall(c, fact)
		}
		return true
	})
}

func (lg *checker) checkSelector(sel *ast.SelectorExpr, fact lockSet) {
	selection, ok := lg.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	info, ok := lg.guards[field]
	if !ok {
		return
	}
	base := lg.exprKey(sel.X)
	if base == "" {
		return // untrackable root: conservative silence, not a finding
	}
	key := base + "." + info.guard
	if fact[key] {
		return
	}
	lg.pass.Reportf(sel.Pos(), "access to %s (guarded-by: %s) without holding %s.%s",
		exprText(sel), info.guard, exprText(sel.X), info.guard)
}

// checkLockedCall enforces the call-side half of the *Locked naming
// convention: x.fooLocked() requires x's annotated guards held.
func (lg *checker) checkLockedCall(call *ast.CallExpr, fact lockSet) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !strings.HasSuffix(sel.Sel.Name, "Locked") {
		return
	}
	obj, ok := lg.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() != lg.pass.Pkg {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	named := namedRecvType(sig.Recv().Type())
	guardsOf := lg.typeGuards[named]
	if len(guardsOf) == 0 {
		return
	}
	base := lg.exprKey(sel.X)
	if base == "" {
		return
	}
	for _, guard := range guardsOf {
		if !fact[base+"."+guard] {
			lg.pass.Reportf(call.Pos(), "call to %s requires %s.%s held (the Locked suffix is a contract: caller holds the receiver's guards)",
				sel.Sel.Name, exprText(sel.X), guard)
		}
	}
}
