package tnf

import (
	"testing"

	"icpic3/internal/expr"
	"icpic3/internal/interval"
)

func mustVar(t *testing.T, s *System, name string, integer bool, lo, hi float64) VarID {
	t.Helper()
	id, err := s.AddVar(name, integer, interval.New(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestAddVar(t *testing.T) {
	s := NewSystem()
	x := mustVar(t, s, "x", false, -1, 1)
	if s.VarName(x) != "x" {
		t.Errorf("VarName = %q", s.VarName(x))
	}
	if _, err := s.AddVar("x", false, interval.New(0, 1)); err == nil {
		t.Error("duplicate declaration should fail")
	}
	id, ok := s.Lookup("x")
	if !ok || id != x {
		t.Error("Lookup failed")
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Error("Lookup of undeclared should fail")
	}
}

func TestIntegralTightening(t *testing.T) {
	s := NewSystem()
	n := mustVar(t, s, "n", true, 0.3, 4.7)
	d := s.Vars[n].Domain
	if d.Lo != 1 || d.Hi != 4 {
		t.Errorf("integral domain = %v, want [1,4]", d)
	}
	b, _ := s.AddBool("b")
	db := s.Vars[b].Domain
	if db.Lo != 0 || db.Hi != 1 || !s.Vars[b].Integer {
		t.Errorf("bool domain = %v", db)
	}
}

func TestNegLit(t *testing.T) {
	s := NewSystem()
	x := mustVar(t, s, "x", false, -10, 10)
	n := mustVar(t, s, "n", true, -10, 10)

	// real: exact strictness-flipping negation
	if got := s.NegLit(MkLe(x, 2)); got != MkGt(x, 2) {
		t.Errorf("real neg = %v", got)
	}
	if got := s.NegLit(MkGe(x, 2)); got != MkLt(x, 2) {
		t.Errorf("real neg = %v", got)
	}
	if got := s.NegLit(MkLt(x, 2)); got != MkGe(x, 2) {
		t.Errorf("real neg strict = %v", got)
	}
	if got := s.NegLit(MkGt(x, 2)); got != MkLe(x, 2) {
		t.Errorf("real neg strict = %v", got)
	}
	// int: exact negation
	if got := s.NegLit(MkLe(n, 2)); got != MkGe(n, 3) {
		t.Errorf("int neg = %v", got)
	}
	if got := s.NegLit(MkGe(n, 2)); got != MkLe(n, 1) {
		t.Errorf("int neg = %v", got)
	}
	// int with fractional bound
	if got := s.NegLit(MkLe(n, 2.5)); got != MkGe(n, 3) {
		t.Errorf("int frac neg = %v", got)
	}
	if got := s.NegLit(MkGe(n, 2.5)); got != MkLe(n, 2) {
		t.Errorf("int frac neg = %v", got)
	}
}

func TestCompileArithOps(t *testing.T) {
	s := NewSystem()
	mustVar(t, s, "x", false, 0, 2)
	mustVar(t, s, "y", false, 1, 3)
	v, err := s.CompileArith(expr.MustParse("x + y * x"))
	if err != nil {
		t.Fatal(err)
	}
	// constraints: m = y*x, a = x+m
	if len(s.Cons) != 2 {
		t.Fatalf("Cons = %v", s.Cons)
	}
	if s.Cons[0].Op != ConMul || s.Cons[1].Op != ConAdd {
		t.Errorf("ops = %v %v", s.Cons[0].Op, s.Cons[1].Op)
	}
	// forward domain: y*x in [0,6], x + that in [0,8]
	d := s.Vars[v].Domain
	if d.Lo > 0 || d.Hi < 8 || d.Hi > 8.1 {
		t.Errorf("forward domain = %v", d)
	}
}

func TestCompileSubDivEncoding(t *testing.T) {
	s := NewSystem()
	x := mustVar(t, s, "x", false, 0, 2)
	y := mustVar(t, s, "y", false, 1, 3)
	z, err := s.CompileArith(expr.MustParse("x - y"))
	if err != nil {
		t.Fatal(err)
	}
	// encoded as x = z + y
	c := s.Cons[0]
	if c.Op != ConAdd || c.Z != x || c.X != z || c.Y != y {
		t.Errorf("sub encoding = %v", c)
	}
	s2 := NewSystem()
	x2 := mustVar(t, s2, "x", false, 0, 2)
	y2 := mustVar(t, s2, "y", false, 1, 3)
	q, err := s2.CompileArith(expr.MustParse("x / y"))
	if err != nil {
		t.Fatal(err)
	}
	c2 := s2.Cons[0]
	if c2.Op != ConMul || c2.Z != x2 || c2.X != q || c2.Y != y2 {
		t.Errorf("div encoding = %v", c2)
	}
	if s2.Vars[q].Integer {
		t.Error("quotient must be real")
	}
}

func TestCSE(t *testing.T) {
	s := NewSystem()
	mustVar(t, s, "x", false, 0, 2)
	e := expr.MustParse("(x * x) + (x * x)")
	if _, err := s.CompileArith(e); err != nil {
		t.Fatal(err)
	}
	// x*x compiled once: one mul + one add
	muls := 0
	for _, c := range s.Cons {
		if c.Op == ConMul {
			muls++
		}
	}
	if muls != 1 {
		t.Errorf("CSE failed: %d muls", muls)
	}
}

func TestCompileUnaryOps(t *testing.T) {
	s := NewSystem()
	mustVar(t, s, "x", false, 0.5, 2)
	srcs := map[string]ConOp{
		"-x":      ConNeg,
		"abs(x)":  ConAbs,
		"sqrt(x)": ConSqrt,
		"exp(x)":  ConExp,
		"log(x)":  ConLog,
		"sin(x)":  ConSin,
		"cos(x)":  ConCos,
	}
	for src, op := range srcs {
		before := len(s.Cons)
		if _, err := s.CompileArith(expr.MustParse(src)); err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if len(s.Cons) != before+1 || s.Cons[before].Op != op {
			t.Errorf("%s: expected %v constraint", src, op)
		}
	}
	before := len(s.Cons)
	if _, err := s.CompileArith(expr.MustParse("x ^ 3")); err != nil {
		t.Fatal(err)
	}
	if s.Cons[before].Op != ConPow || s.Cons[before].N != 3 {
		t.Errorf("pow constraint = %v", s.Cons[before])
	}
}

func TestCompileCmp(t *testing.T) {
	s := NewSystem()
	mustVar(t, s, "x", false, -5, 5)
	mustVar(t, s, "n", true, -5, 5)

	l, err := s.CompileBool(expr.MustParse("x <= 2"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Dir != DirLe || l.B != 0 {
		t.Errorf("x<=2 lit = %v", l)
	}
	// strict on int becomes exact
	l, err = s.CompileBool(expr.MustParse("n < 2"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Dir != DirLe || l.B != -1 {
		t.Errorf("n<2 lit = %v (want <= -1 on diff var)", l)
	}
	// strict on real stays strict
	l, err = s.CompileBool(expr.MustParse("x < 2"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Dir != DirLe || l.B != 0 || !l.Strict {
		t.Errorf("x<2 lit = %v (want strict < 0)", l)
	}
}

func TestAssertTopLevelAnd(t *testing.T) {
	s := NewSystem()
	mustVar(t, s, "x", false, -5, 5)
	mustVar(t, s, "y", false, -5, 5)
	if err := s.Assert(expr.MustParse("x <= 1 and y >= 0")); err != nil {
		t.Fatal(err)
	}
	// two unit clauses, no Tseitin var for the top-level and
	units := 0
	for _, c := range s.Clauses {
		if len(c) == 1 {
			units++
		}
	}
	if units != 2 {
		t.Errorf("units = %d, want 2 (clauses: %v)", units, s.Clauses)
	}
}

func TestTseitinShapes(t *testing.T) {
	s := NewSystem()
	a, _ := s.AddBool("a")
	b, _ := s.AddBool("b")
	_ = a
	_ = b
	if err := s.Assert(expr.MustParse("a or b")); err != nil {
		t.Fatal(err)
	}
	// or over two plain bool lits is a Tseitin or: 2 binary + 1 long + 1 unit
	if len(s.Clauses) != 4 {
		t.Errorf("clauses = %v", s.Clauses)
	}
	s2 := NewSystem()
	s2.AddBool("a")
	s2.AddBool("b")
	if err := s2.Assert(expr.MustParse("a <-> b")); err != nil {
		t.Fatal(err)
	}
	if len(s2.Clauses) != 5 { // 4 iff clauses + unit
		t.Errorf("iff clauses = %v", s2.Clauses)
	}
}

func TestCompileErrors(t *testing.T) {
	s := NewSystem()
	if _, err := s.CompileArith(expr.MustParse("missing + 1")); err == nil {
		t.Error("undeclared var should fail")
	}
	if _, err := s.CompileBool(expr.MustParse("missing")); err == nil {
		t.Error("undeclared bool should fail")
	}
	if _, err := s.CompileBool(expr.MustParse("nope <= 1")); err == nil {
		t.Error("undeclared in cmp should fail")
	}
	if err := s.Assert(expr.MustParse("alsonope")); err == nil {
		t.Error("assert undeclared should fail")
	}
}

func TestIteArithmetic(t *testing.T) {
	s := NewSystem()
	s.AddBool("c")
	mustVar(t, s, "x", false, 0, 1)
	mustVar(t, s, "y", false, 2, 3)
	z, err := s.CompileArith(expr.MustParse("ite(c, x, y)"))
	if err != nil {
		t.Fatal(err)
	}
	d := s.Vars[z].Domain
	if d.Lo != 0 || d.Hi != 3 {
		t.Errorf("ite hull domain = %v", d)
	}
	// 4 conditional-equality clauses
	if len(s.Clauses) != 4 {
		t.Errorf("ite clauses = %d", len(s.Clauses))
	}
}

func TestStats(t *testing.T) {
	s := NewSystem()
	mustVar(t, s, "x", false, 0, 1)
	if err := s.Assert(expr.MustParse("x <= 0 or x >= 1")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Vars == 0 || st.Clauses == 0 || st.Lits < st.Clauses {
		t.Errorf("Stats = %+v", st)
	}
}

func TestLitString(t *testing.T) {
	if got := MkLe(3, 1.5).String(); got != "v3<=1.5" {
		t.Errorf("String = %q", got)
	}
	if got := MkGe(0, -2).String(); got != "v0>=-2" {
		t.Errorf("String = %q", got)
	}
}

func TestConstraintString(t *testing.T) {
	c := Constraint{Op: ConAdd, Z: 2, X: 0, Y: 1}
	if c.String() != "v2 = add(v0, v1)" {
		t.Errorf("String = %q", c.String())
	}
	p := Constraint{Op: ConPow, Z: 1, X: 0, N: 3}
	if p.String() != "v1 = v0^3" {
		t.Errorf("String = %q", p.String())
	}
	u := Constraint{Op: ConSin, Z: 1, X: 0}
	if u.String() != "v1 = sin(v0)" {
		t.Errorf("String = %q", u.String())
	}
}

func TestBoolConstAssert(t *testing.T) {
	s := NewSystem()
	if err := s.Assert(expr.Bool(true)); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(expr.Bool(false)); err != nil {
		t.Fatal(err)
	}
	// false assertion must produce contradictory unit clauses on a var
	if len(s.Clauses) < 4 {
		t.Errorf("clauses = %v", s.Clauses)
	}
}

// nestedSum builds x + 0*(x + 1*(x + 2*(... x))) with d levels: a deep
// term whose every level is a fresh sum, product and constant.
func nestedSum(d int) *expr.Expr {
	e := expr.V("x")
	for i := 0; i < d; i++ {
		e = expr.Add(expr.V("x"), expr.Mul(expr.Num(float64(i)), e))
	}
	return e
}

// TestCompileArithAllocsLinear pins hash-consing: a term twice as deep
// costs at most about twice the allocations.  A cache keyed on rendered
// subterms allocates with the square of the depth and fails this.
func TestCompileArithAllocsLinear(t *testing.T) {
	allocs := func(d int) float64 {
		e := nestedSum(d)
		return testing.AllocsPerRun(10, func() {
			s := NewSystem()
			if _, err := s.AddVar("x", false, interval.New(-1, 1)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CompileArith(e); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(128), allocs(256)
	if b > 2.2*a {
		t.Errorf("allocs: depth 128 %.0f, depth 256 %.0f (> 2.2x)", a, b)
	}
}
