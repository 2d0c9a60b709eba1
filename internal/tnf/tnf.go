// Package tnf compiles expressions (package expr) into ternary normal
// form: a set of numeric variables with interval domains, a set of
// primitive arithmetic constraints (z = x ∘ y and z = op(x)), and a set of
// clauses over interval bound literals.  This is the input format of the
// CDCL(ICP) solver in package icp, mirroring the front-end of iSAT3.
//
// Strict inequalities are first-class (literals carry a Strict flag, as in
// iSAT3), so literal negation is exact over the reals.  Integer and
// Boolean variables use exact integral negation with strictness
// normalized away.  The solver's SAT answers are still ε-candidates that
// callers must validate; UNSAT answers are sound.
package tnf

import (
	"fmt"
	"math"
	"strconv"

	"icpic3/internal/expr"
	"icpic3/internal/interval"
)

// VarID identifies a solver variable.
type VarID int32

// VarInfo describes one solver variable.
type VarInfo struct {
	// Name is the declared name, or for an auxiliary the tag of what it
	// stands for ("a" for a sum, "and" for a conjunction, ...); VarName
	// renders an auxiliary's full name.
	Name    string
	Integer bool // integral domain (Booleans are integer vars in [0,1])
	Aux     bool // compiler-introduced auxiliary (branching deprioritized)
	Domain  interval.Interval
}

// Dir is the direction of a bound literal.
type Dir int8

const (
	// DirLe is an upper-bound literal x <= B.
	DirLe Dir = iota
	// DirGe is a lower-bound literal x >= B.
	DirGe
)

// Lit is an interval bound literal: (Var <= B), (Var < B), (Var >= B) or
// (Var > B).  Strict bounds are first-class (as in iSAT3), which makes
// literal negation exact over the reals.
type Lit struct {
	Var    VarID
	Dir    Dir
	B      float64
	Strict bool
}

// MkLe returns the literal v <= b.
func MkLe(v VarID, b float64) Lit { return Lit{Var: v, Dir: DirLe, B: b} }

// MkGe returns the literal v >= b.
func MkGe(v VarID, b float64) Lit { return Lit{Var: v, Dir: DirGe, B: b} }

// MkLt returns the literal v < b.
func MkLt(v VarID, b float64) Lit { return Lit{Var: v, Dir: DirLe, B: b, Strict: true} }

// MkGt returns the literal v > b.
func MkGt(v VarID, b float64) Lit { return Lit{Var: v, Dir: DirGe, B: b, Strict: true} }

// HoldsOn reports whether every point of v satisfies l, strictness
// respected.
func (l Lit) HoldsOn(v interval.Interval) bool {
	if l.Dir == DirLe {
		return v.Hi < l.B || (!l.Strict && v.Hi == l.B)
	}
	return v.Lo > l.B || (!l.Strict && v.Lo == l.B)
}

func (l Lit) String() string {
	op := "<="
	if l.Dir == DirLe {
		if l.Strict {
			op = "<"
		}
	} else {
		op = ">="
		if l.Strict {
			op = ">"
		}
	}
	return fmt.Sprintf("v%d%s%g", l.Var, op, l.B)
}

// Clause is a disjunction of bound literals.
type Clause []Lit

// ConOp enumerates the primitive constraint operators.
type ConOp int8

const (
	// ConAdd asserts Z = X + Y.
	ConAdd ConOp = iota
	// ConMul asserts Z = X * Y.
	ConMul
	// ConNeg asserts Z = -X.
	ConNeg
	// ConMin asserts Z = min(X, Y).
	ConMin
	// ConMax asserts Z = max(X, Y).
	ConMax
	// ConAbs asserts Z = |X|.
	ConAbs
	// ConPow asserts Z = X^N.
	ConPow
	// ConSqrt asserts Z = sqrt(X).
	ConSqrt
	// ConExp asserts Z = exp(X).
	ConExp
	// ConLog asserts Z = log(X).
	ConLog
	// ConSin asserts Z = sin(X).
	ConSin
	// ConCos asserts Z = cos(X).
	ConCos
	// ConTan asserts Z = tan(X).
	ConTan
	// ConAtan asserts Z = atan(X).
	ConAtan
	// ConTanh asserts Z = tanh(X).
	ConTanh
)

var conNames = map[ConOp]string{
	ConAdd: "add", ConMul: "mul", ConNeg: "neg", ConMin: "min", ConMax: "max",
	ConAbs: "abs", ConPow: "pow", ConSqrt: "sqrt", ConExp: "exp",
	ConLog: "log", ConSin: "sin", ConCos: "cos",
	ConTan: "tan", ConAtan: "atan", ConTanh: "tanh",
}

func (o ConOp) String() string { return conNames[o] }

// Constraint is a primitive arithmetic constraint in ternary normal form.
// Unary operators leave Y unused.
type Constraint struct {
	Op   ConOp
	Z    VarID
	X, Y VarID
	N    int // exponent for ConPow
}

func (c Constraint) String() string {
	switch c.Op {
	case ConAdd, ConMul, ConMin, ConMax:
		return fmt.Sprintf("v%d = %s(v%d, v%d)", c.Z, c.Op, c.X, c.Y)
	case ConPow:
		return fmt.Sprintf("v%d = v%d^%d", c.Z, c.X, c.N)
	default:
		return fmt.Sprintf("v%d = %s(v%d)", c.Z, c.Op, c.X)
	}
}

// System is the compiled ternary-normal-form problem: the input to the
// CDCL(ICP) solver.
type System struct {
	Vars    []VarInfo
	Cons    []Constraint
	Clauses []Clause

	byName map[string]VarID // declared variables (auxiliaries are unnamed here)
	cse    map[cseKey]VarID // hash-consed arithmetic subterms
	ites   map[string]VarID // arithmetic ite nodes, keyed on their rendering
}

// cseKey identifies a compiled arithmetic node by its operator and the
// variables its operands compiled to, so equal subterms share one
// variable and a look-up costs O(1) whatever the subterm's depth.  A
// constant is keyed on its bits (-0 and 0 stay apart).  An arithmetic
// ite is cached apart, on its rendering (see CompileArith).
type cseKey struct {
	op   expr.Op
	x, y VarID
	n    int
	bits uint64
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{
		byName: make(map[string]VarID),
		cse:    make(map[cseKey]VarID),
	}
}

// NumVars returns the number of variables.
func (s *System) NumVars() int { return len(s.Vars) }

// AddVar declares a named variable with the given integrality and domain.
// Declaring the same name twice is an error.
func (s *System) AddVar(name string, integer bool, dom interval.Interval) (VarID, error) {
	if _, ok := s.byName[name]; ok {
		return 0, fmt.Errorf("tnf: variable %q already declared", name)
	}
	if integer {
		dom = tightenIntegral(dom)
	}
	id := VarID(len(s.Vars))
	s.Vars = append(s.Vars, VarInfo{Name: name, Integer: integer, Domain: dom})
	s.byName[name] = id
	return id, nil
}

// AddBool declares a Boolean variable (integer in [0,1]).
func (s *System) AddBool(name string) (VarID, error) {
	return s.AddVar(name, true, interval.New(0, 1))
}

// Lookup returns the variable id for name.
func (s *System) Lookup(name string) (VarID, bool) {
	id, ok := s.byName[name]
	return id, ok
}

// VarName returns the declared name of v.  An auxiliary's name, .<tag><id>,
// is synthesized here on demand.
func (s *System) VarName(v VarID) string {
	info := &s.Vars[v]
	if info.Aux {
		return "." + info.Name + strconv.Itoa(int(v))
	}
	return info.Name
}

// fresh introduces an auxiliary variable tagged tag.  It has no entry in
// the name index: nothing looks an auxiliary up by name.
func (s *System) fresh(tag string, integer bool, dom interval.Interval) VarID {
	if integer {
		dom = tightenIntegral(dom)
	}
	id := VarID(len(s.Vars))
	s.Vars = append(s.Vars, VarInfo{Name: tag, Integer: integer, Aux: true, Domain: dom})
	return id
}

// tightenIntegral shrinks an integral variable's domain to integer bounds.
func tightenIntegral(d interval.Interval) interval.Interval {
	if d.IsEmpty() {
		return d
	}
	return interval.New(math.Ceil(d.Lo), math.Floor(d.Hi))
}

// AddClause appends a clause.  Tautological literals are kept (the solver
// handles them); empty clauses make the system trivially UNSAT.
func (s *System) AddClause(c Clause) {
	s.Clauses = append(s.Clauses, c)
}

// addCon records a primitive constraint.
func (s *System) addCon(c Constraint) {
	s.Cons = append(s.Cons, c)
}

// NegLit returns the exact negation of l: for real variables strictness is
// flipped (¬(x <= c) is x > c); for integral variables the bound is moved
// to the adjacent integer.
func (s *System) NegLit(l Lit) Lit {
	if s.Vars[l.Var].Integer {
		// normalize: integral (x < c) is (x <= ceil(c)-1), etc.
		if l.Dir == DirLe {
			b := intUpper(l.B, l.Strict)
			return MkGe(l.Var, b+1)
		}
		b := intLower(l.B, l.Strict)
		return MkLe(l.Var, b-1)
	}
	if l.Dir == DirLe {
		return Lit{Var: l.Var, Dir: DirGe, B: l.B, Strict: !l.Strict}
	}
	return Lit{Var: l.Var, Dir: DirLe, B: l.B, Strict: !l.Strict}
}

// intUpper normalizes an integral upper bound (x <= b / x < b) to the
// largest admissible integer.
func intUpper(b float64, strict bool) float64 {
	if strict {
		return math.Ceil(b) - 1
	}
	return math.Floor(b)
}

// intLower normalizes an integral lower bound (x >= b / x > b) to the
// smallest admissible integer.
func intLower(b float64, strict bool) float64 {
	if strict {
		return math.Floor(b) + 1
	}
	return math.Ceil(b)
}

// --- compilation of arithmetic -----------------------------------------

// CompileArith translates a numeric expression to a variable constrained to
// equal its value.  Subterms are hash-consed: the operands compile first,
// and a node whose operator and operand variables were seen before
// reuses that node's variable.  The expression must be type-correct
// (numeric) and all variables declared.
func (s *System) CompileArith(e *expr.Expr) (VarID, error) {
	switch e.Op {
	case expr.OpVar:
		id, ok := s.byName[e.Name]
		if !ok {
			return 0, fmt.Errorf("tnf: undeclared variable %q", e.Name)
		}
		return id, nil
	case expr.OpConst:
		return s.share(cseKey{op: e.Op, bits: math.Float64bits(e.Val)}, func() VarID {
			return s.fresh("c", e.Val == math.Trunc(e.Val), interval.Point(e.Val))
		}), nil
	case expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv, expr.OpMin, expr.OpMax:
		x, err := s.CompileArith(e.Args[0])
		if err != nil {
			return 0, err
		}
		y, err := s.CompileArith(e.Args[1])
		if err != nil {
			return 0, err
		}
		return s.share(cseKey{op: e.Op, x: x, y: y}, func() VarID { return s.binaryCon(e.Op, x, y) }), nil
	case expr.OpNeg, expr.OpAbs, expr.OpSqrt, expr.OpExp, expr.OpLog, expr.OpSin, expr.OpCos,
		expr.OpTan, expr.OpAtan, expr.OpTanh:
		x, err := s.CompileArith(e.Args[0])
		if err != nil {
			return 0, err
		}
		return s.share(cseKey{op: e.Op, x: x}, func() VarID { return s.unaryCon(e.Op, x) }), nil
	case expr.OpPow:
		x, err := s.CompileArith(e.Args[0])
		if err != nil {
			return 0, err
		}
		return s.share(cseKey{op: e.Op, x: x, n: e.N}, func() VarID {
			z := s.fresh("pw", s.Vars[x].Integer && e.N >= 0, s.Vars[x].Domain.PowInt(e.N))
			s.addCon(Constraint{Op: ConPow, Z: z, X: x, N: e.N})
			return z
		}), nil
	case expr.OpIte:
		// Looked up before its operands compile: CompileBool does not
		// memoize, so compiling the condition again would add Tseitin
		// variables.  The rendering is the only key available before then.
		key := e.String()
		if v, ok := s.ites[key]; ok {
			return v, nil
		}
		v, err := s.compileIte(e)
		if err != nil {
			return 0, err
		}
		if s.ites == nil {
			s.ites = make(map[string]VarID)
		}
		s.ites[key] = v
		return v, nil
	}
	return 0, fmt.Errorf("tnf: expression %s is not numeric", e)
}

// share returns the variable cached under key, or caches and returns the
// one mk builds.
func (s *System) share(key cseKey, mk func() VarID) VarID {
	if v, ok := s.cse[key]; ok {
		return v
	}
	v := mk()
	s.cse[key] = v
	return v
}

// compileIte encodes z = ite(cond, a, b).
func (s *System) compileIte(e *expr.Expr) (VarID, error) {
	cond, err := s.CompileBool(e.Args[0])
	if err != nil {
		return 0, err
	}
	a, err := s.CompileArith(e.Args[1])
	if err != nil {
		return 0, err
	}
	b, err := s.CompileArith(e.Args[2])
	if err != nil {
		return 0, err
	}
	da, db := s.Vars[a].Domain, s.Vars[b].Domain
	z := s.fresh("ite", s.Vars[a].Integer && s.Vars[b].Integer, da.Hull(db))
	// cond -> z = a ; !cond -> z = b, via difference variables.
	dza := s.binaryCon(expr.OpSub, z, a)
	dzb := s.binaryCon(expr.OpSub, z, b)
	nc := s.NegLit(cond)
	s.AddClause(Clause{nc, MkLe(dza, 0)})
	s.AddClause(Clause{nc, MkGe(dza, 0)})
	s.AddClause(Clause{cond, MkLe(dzb, 0)})
	s.AddClause(Clause{cond, MkGe(dzb, 0)})
	return z, nil
}

// binaryCon introduces z with the primitive constraint for op(x, y).
// Subtraction is encoded through addition (z = x - y  <=>  x = z + y) and
// division through multiplication (z = x / y  <=>  x = z * y), so the
// solver needs contractors only for the primitive set.
func (s *System) binaryCon(op expr.Op, x, y VarID) VarID {
	dx, dy := s.Vars[x].Domain, s.Vars[y].Domain
	intg := s.Vars[x].Integer && s.Vars[y].Integer
	switch op {
	case expr.OpAdd:
		z := s.fresh("a", intg, dx.Add(dy))
		s.addCon(Constraint{Op: ConAdd, Z: z, X: x, Y: y})
		return z
	case expr.OpSub:
		z := s.fresh("s", intg, dx.Sub(dy))
		s.addCon(Constraint{Op: ConAdd, Z: x, X: z, Y: y})
		return z
	case expr.OpMul:
		z := s.fresh("m", intg, dx.Mul(dy))
		s.addCon(Constraint{Op: ConMul, Z: z, X: x, Y: y})
		return z
	case expr.OpDiv:
		z := s.fresh("d", false, dx.Div(dy))
		s.addCon(Constraint{Op: ConMul, Z: x, X: z, Y: y})
		return z
	case expr.OpMin:
		z := s.fresh("mn", intg, dx.Min(dy))
		s.addCon(Constraint{Op: ConMin, Z: z, X: x, Y: y})
		return z
	case expr.OpMax:
		z := s.fresh("mx", intg, dx.Max(dy))
		s.addCon(Constraint{Op: ConMax, Z: z, X: x, Y: y})
		return z
	}
	panic("tnf: not a binary arithmetic op: " + op.String())
}

func (s *System) unaryCon(op expr.Op, x VarID) VarID {
	dx := s.Vars[x].Domain
	intg := s.Vars[x].Integer
	switch op {
	case expr.OpNeg:
		z := s.fresh("n", intg, dx.Neg())
		s.addCon(Constraint{Op: ConNeg, Z: z, X: x})
		return z
	case expr.OpAbs:
		z := s.fresh("ab", intg, dx.Abs())
		s.addCon(Constraint{Op: ConAbs, Z: z, X: x})
		return z
	case expr.OpSqrt:
		z := s.fresh("sq", false, dx.Sqrt())
		s.addCon(Constraint{Op: ConSqrt, Z: z, X: x})
		return z
	case expr.OpExp:
		z := s.fresh("ex", false, dx.Exp())
		s.addCon(Constraint{Op: ConExp, Z: z, X: x})
		return z
	case expr.OpLog:
		z := s.fresh("lg", false, dx.Log())
		s.addCon(Constraint{Op: ConLog, Z: z, X: x})
		return z
	case expr.OpSin:
		z := s.fresh("sn", false, dx.Sin())
		s.addCon(Constraint{Op: ConSin, Z: z, X: x})
		return z
	case expr.OpCos:
		z := s.fresh("cs", false, dx.Cos())
		s.addCon(Constraint{Op: ConCos, Z: z, X: x})
		return z
	case expr.OpTan:
		z := s.fresh("tn", false, dx.Tan())
		s.addCon(Constraint{Op: ConTan, Z: z, X: x})
		return z
	case expr.OpAtan:
		z := s.fresh("at", false, dx.Atan())
		s.addCon(Constraint{Op: ConAtan, Z: z, X: x})
		return z
	case expr.OpTanh:
		z := s.fresh("th", false, dx.Tanh())
		s.addCon(Constraint{Op: ConTanh, Z: z, X: x})
		return z
	}
	panic("tnf: not a unary arithmetic op: " + op.String())
}

// --- compilation of Boolean structure ----------------------------------

// CompileBool translates a Boolean expression to a literal that is
// equivalent to it (introducing Tseitin variables and clauses as needed).
func (s *System) CompileBool(e *expr.Expr) (Lit, error) {
	switch e.Op {
	case expr.OpConst:
		// true -> a fresh tautologically-true literal on a const var
		v := s.fresh("b", true, interval.New(0, 1))
		if e.Val != 0 {
			s.AddClause(Clause{MkGe(v, 1)})
		} else {
			s.AddClause(Clause{MkLe(v, 0)})
		}
		return MkGe(v, 1), nil
	case expr.OpVar:
		id, ok := s.byName[e.Name]
		if !ok {
			return Lit{}, fmt.Errorf("tnf: undeclared variable %q", e.Name)
		}
		return MkGe(id, 1), nil
	case expr.OpNot:
		l, err := s.CompileBool(e.Args[0])
		if err != nil {
			return Lit{}, err
		}
		return s.NegLit(l), nil
	case expr.OpLe, expr.OpLt, expr.OpGe, expr.OpGt:
		return s.compileCmp(e)
	case expr.OpEq, expr.OpNeq:
		return s.compileEq(e)
	case expr.OpAnd, expr.OpOr:
		lits := make([]Lit, len(e.Args))
		for i, a := range e.Args {
			l, err := s.CompileBool(a)
			if err != nil {
				return Lit{}, err
			}
			lits[i] = l
		}
		if e.Op == expr.OpAnd {
			return s.tseitinAnd(lits), nil
		}
		return s.tseitinOr(lits), nil
	case expr.OpImplies:
		a, err := s.CompileBool(e.Args[0])
		if err != nil {
			return Lit{}, err
		}
		b, err := s.CompileBool(e.Args[1])
		if err != nil {
			return Lit{}, err
		}
		return s.tseitinOr([]Lit{s.NegLit(a), b}), nil
	case expr.OpIff:
		a, err := s.CompileBool(e.Args[0])
		if err != nil {
			return Lit{}, err
		}
		b, err := s.CompileBool(e.Args[1])
		if err != nil {
			return Lit{}, err
		}
		v := s.fresh("iff", true, interval.New(0, 1))
		r := MkGe(v, 1)
		nr, na, nb := s.NegLit(r), s.NegLit(a), s.NegLit(b)
		s.AddClause(Clause{nr, na, b})
		s.AddClause(Clause{nr, a, nb})
		s.AddClause(Clause{r, a, b})
		s.AddClause(Clause{r, na, nb})
		return r, nil
	case expr.OpIte:
		// Boolean ite(c, a, b) == (c and a) or (!c and b)
		rewritten := expr.Or(
			expr.And(e.Args[0], e.Args[1]),
			expr.And(expr.Not(e.Args[0]), e.Args[2]),
		)
		return s.CompileBool(rewritten)
	}
	return Lit{}, fmt.Errorf("tnf: expression %s is not Boolean", e)
}

// compileCmp turns an ordered comparison into a bound literal over the
// difference variable d = lhs - rhs.
func (s *System) compileCmp(e *expr.Expr) (Lit, error) {
	d, err := s.CompileArith(expr.Sub(e.Args[0], e.Args[1]))
	if err != nil {
		return Lit{}, err
	}
	intg := s.Vars[d].Integer
	switch e.Op {
	case expr.OpLe:
		return MkLe(d, 0), nil
	case expr.OpLt:
		if intg {
			return MkLe(d, -1), nil
		}
		return MkLt(d, 0), nil
	case expr.OpGe:
		return MkGe(d, 0), nil
	case expr.OpGt:
		if intg {
			return MkGe(d, 1), nil
		}
		return MkGt(d, 0), nil
	}
	panic("unreachable")
}

// compileEq handles = and != between numeric operands via the difference
// variable d = lhs - rhs.  Boolean operands have already been type-checked
// by callers; b1 = b2 over Booleans compiles numerically, which is exact
// because Booleans are integer variables.
//
// For real operands the "d != 0" direction relaxes to true (a disequality
// over reals cannot be enforced by closed interval bounds); this only
// grows the solution set, so UNSAT remains sound.
func (s *System) compileEq(e *expr.Expr) (Lit, error) {
	d, err := s.CompileArith(expr.Sub(e.Args[0], e.Args[1]))
	if err != nil {
		return Lit{}, err
	}
	intg := s.Vars[d].Integer
	neqClause := func(b Lit) Clause { // b or (d != 0)
		if intg {
			return Clause{b, MkLe(d, -1), MkGe(d, 1)}
		}
		return Clause{b, MkLt(d, 0), MkGt(d, 0)}
	}
	if e.Op == expr.OpEq {
		v := s.fresh("eq", true, interval.New(0, 1))
		b := MkGe(v, 1)
		nb := s.NegLit(b)
		s.AddClause(Clause{nb, MkLe(d, 0)}) // b -> d <= 0
		s.AddClause(Clause{nb, MkGe(d, 0)}) // b -> d >= 0
		s.AddClause(neqClause(b))           // !b -> d != 0
		return b, nil
	}
	// Neq: b <-> (d != 0)
	v := s.fresh("ne", true, interval.New(0, 1))
	b := MkGe(v, 1)
	nb := s.NegLit(b)
	s.AddClause(neqClause(nb))         // b -> d != 0
	s.AddClause(Clause{b, MkLe(d, 0)}) // !b -> d <= 0
	s.AddClause(Clause{b, MkGe(d, 0)}) // !b -> d >= 0
	return b, nil
}

// tseitinAnd returns a literal equivalent to the conjunction of lits.
func (s *System) tseitinAnd(lits []Lit) Lit {
	if len(lits) == 1 {
		return lits[0]
	}
	v := s.fresh("and", true, interval.New(0, 1))
	r := MkGe(v, 1)
	nr := s.NegLit(r)
	long := make(Clause, 0, len(lits)+1)
	long = append(long, r)
	for _, l := range lits {
		s.AddClause(Clause{nr, l})
		long = append(long, s.NegLit(l))
	}
	s.AddClause(long)
	return r
}

// tseitinOr returns a literal equivalent to the disjunction of lits.
func (s *System) tseitinOr(lits []Lit) Lit {
	if len(lits) == 1 {
		return lits[0]
	}
	v := s.fresh("or", true, interval.New(0, 1))
	r := MkGe(v, 1)
	nr := s.NegLit(r)
	long := make(Clause, 0, len(lits)+1)
	long = append(long, nr)
	for _, l := range lits {
		s.AddClause(Clause{r, s.NegLit(l)})
		long = append(long, l)
	}
	s.AddClause(long)
	return r
}

// Assert adds the Boolean expression e as a top-level fact.
func (s *System) Assert(e *expr.Expr) error {
	// Top-level conjunctions assert each conjunct directly (fewer aux vars).
	if e.Op == expr.OpAnd {
		for _, a := range e.Args {
			if err := s.Assert(a); err != nil {
				return err
			}
		}
		return nil
	}
	l, err := s.CompileBool(e)
	if err != nil {
		return err
	}
	s.AddClause(Clause{l})
	return nil
}

// AssertLit adds a unit clause.
func (s *System) AssertLit(l Lit) { s.AddClause(Clause{l}) }

// Stats summarises the compiled system size.
type Stats struct {
	Vars, Cons, Clauses, Lits int
}

// Stats returns size statistics for reporting.
func (s *System) Stats() Stats {
	n := 0
	for _, c := range s.Clauses {
		n += len(c)
	}
	return Stats{Vars: len(s.Vars), Cons: len(s.Cons), Clauses: len(s.Clauses), Lits: n}
}
