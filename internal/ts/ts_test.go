package ts

import (
	"bufio"
	"errors"
	"strings"
	"testing"

	"icpic3/internal/expr"
	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

func counterSystem(t *testing.T) *System {
	t.Helper()
	s := New("counter")
	if err := s.AddReal("x", 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.ParseInit("x <= 1 and x >= 0"); err != nil {
		t.Fatal(err)
	}
	if err := s.ParseTrans("x' = x + 1"); err != nil {
		t.Fatal(err)
	}
	if err := s.ParseProp("x <= 50"); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAddVarErrors(t *testing.T) {
	s := New("t")
	if err := s.AddReal("x", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddReal("x", 0, 1); err == nil {
		t.Error("duplicate should fail")
	}
	if err := s.AddReal("y'", 0, 1); err == nil {
		t.Error("primed name should fail")
	}
	if _, ok := s.VarIndex("x"); !ok {
		t.Error("VarIndex")
	}
}

func TestValidate(t *testing.T) {
	s := New("t")
	s.AddReal("x", 0, 1)
	if err := s.Validate(); err == nil {
		t.Error("missing formulas should fail")
	}
	s.ParseInit("x >= 0")
	s.ParseTrans("x' = x")
	s.ParseProp("x + 1") // not boolean
	if err := s.Validate(); err == nil {
		t.Error("non-boolean prop should fail")
	}
	s.ParseProp("x <= 1")
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// trans referencing undeclared var
	s.ParseTrans("y' = x")
	if err := s.Validate(); err == nil {
		t.Error("undeclared in trans should fail")
	}
}

func TestAtStep(t *testing.T) {
	e := expr.MustParse("x' = x + y")
	r := AtStep(e, 3)
	got := r.String()
	if !strings.Contains(got, "x@4") || !strings.Contains(got, "x@3") || !strings.Contains(got, "y@3") {
		t.Errorf("AtStep = %s", got)
	}
}

func TestDeclareStep(t *testing.T) {
	s := counterSystem(t)
	sys := tnf.NewSystem()
	ids, err := s.DeclareStep(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}
	if sys.VarName(ids[0]) != "x@0" {
		t.Errorf("name = %s", sys.VarName(ids[0]))
	}
	if _, err := s.DeclareStep(sys, 0); err == nil {
		t.Error("re-declaring the same step should fail")
	}
	if _, err := s.DeclareStep(sys, 1); err != nil {
		t.Errorf("step 1: %v", err)
	}
}

// TestDeclareStepLayout pins the id layout that lets IC3's solvers share
// cubes unmapped: on a fresh system step 0 gets ids 0..n-1 in declaration
// order and a step 1 declared next gets n..2n-1, whatever the variable
// kinds.
func TestDeclareStepLayout(t *testing.T) {
	s := New("mixed")
	if err := s.AddReal("x", -1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddInt("n", 0, 9); err != nil {
		t.Fatal(err)
	}
	if err := s.AddBool("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddReal("y", 0, 5); err != nil {
		t.Fatal(err)
	}
	sys := tnf.NewSystem()
	n := len(s.Vars)
	for k := 0; k < 2; k++ {
		ids, err := s.DeclareStep(sys, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if want := tnf.VarID(k*n + i); id != want {
				t.Errorf("step %d: %s has id %d, want %d", k, s.Vars[i].Name, id, want)
			}
			if got, want := sys.VarName(id), StepName(s.Vars[i].Name, k); got != want {
				t.Errorf("id %d is %s, want %s", id, got, want)
			}
		}
	}
}

func TestCheckers(t *testing.T) {
	s := counterSystem(t)
	if ok, err := s.CheckInit(State{"x": 0.5}, 1e-9); err != nil || !ok {
		t.Errorf("CheckInit = %v, %v", ok, err)
	}
	if ok, _ := s.CheckInit(State{"x": 2}, 1e-9); ok {
		t.Error("CheckInit should fail for x=2")
	}
	if ok, err := s.CheckTrans(State{"x": 1}, State{"x": 2}, 1e-9); err != nil || !ok {
		t.Errorf("CheckTrans = %v, %v", ok, err)
	}
	if ok, _ := s.CheckTrans(State{"x": 1}, State{"x": 3}, 1e-9); ok {
		t.Error("CheckTrans should fail for wrong successor")
	}
	if ok, err := s.CheckProp(State{"x": 10}, 1e-9); err != nil || !ok {
		t.Errorf("CheckProp = %v, %v", ok, err)
	}
	if ok, _ := s.CheckProp(State{"x": 51}, 1e-9); ok {
		t.Error("CheckProp should fail for x=51")
	}
}

func TestValidateTrace(t *testing.T) {
	s := counterSystem(t)
	good := []State{{"x": 0}, {"x": 1}}
	// not a counterexample: final state satisfies prop
	if err := s.ValidateTrace(good, 1e-9); err == nil {
		t.Error("non-violating trace should be rejected")
	}
	// build a real counterexample: 0 -> 1 -> ... -> 51
	var trace []State
	for i := 0; i <= 51; i++ {
		trace = append(trace, State{"x": float64(i)})
	}
	if err := s.ValidateTrace(trace, 1e-9); err != nil {
		t.Errorf("valid cex rejected: %v", err)
	}
	// broken transition
	bad := append(append([]State{}, trace...)[:10], State{"x": 51})
	if err := s.ValidateTrace(bad, 1e-9); err == nil {
		t.Error("broken trace accepted")
	}
	// missing variable
	if err := s.ValidateTrace([]State{{}}, 1e-9); err == nil {
		t.Error("missing var accepted")
	}
	// out of range
	big := []State{{"x": 0}}
	for i := 1; i <= 120; i++ {
		big = append(big, State{"x": float64(i)})
	}
	if err := s.ValidateTrace(big, 1e-9); err == nil {
		t.Error("out-of-range trace accepted")
	}
	if err := s.ValidateTrace(nil, 1e-9); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestValidateTraceSubTolerance: a final state that violates Prop by
// less than tol is accepted only when the whole trace is exact.
func TestValidateTraceSubTolerance(t *testing.T) {
	const tol = 1e-2
	sub, err := Parse(`
system subtol
var x : real [-10, 10]
init x >= 0.5 and x <= 1.005
trans x' = x / 2
prop x <= 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.ValidateTrace([]State{{"x": 1.005}}, tol); err != nil {
		t.Errorf("exact depth-0 counterexample rejected: %v", err)
	}
	if err := sub.ValidateTrace([]State{{"x": 1}}, tol); err == nil {
		t.Error("state on the Prop boundary accepted as a counterexample")
	}
	drift, err := Parse(`
system drift
var x : real [0, 10]
init x >= 0 and x <= 0.5
trans x' = x + 0.5
prop x <= 1
`)
	if err != nil {
		t.Fatal(err)
	}
	// Prop fails by 1e-9, but 0.5 + 0.5 != 1 + 1e-9: Trans holds only
	// within tol, so the trace is not exact and stays rejected
	if err := drift.ValidateTrace([]State{{"x": 0.5}, {"x": 1 + 1e-9}}, tol); err == nil {
		t.Error("inexact sub-tolerance trace accepted")
	}
}

func TestParseModel(t *testing.T) {
	src := `
# a thermostat
system thermostat
var T : real [0, 100]
var on : bool
init T >= 20 and T <= 22 and on
trans T' = T + ite(on, 1, -1) and \
      (on' <-> T <= 25)
prop T <= 30
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "thermostat" {
		t.Errorf("name = %q", s.Name)
	}
	if len(s.Vars) != 2 {
		t.Fatalf("vars = %v", s.Vars)
	}
	if s.Vars[0].Name != "T" || s.Vars[0].Kind != expr.KindReal {
		t.Errorf("var T = %+v", s.Vars[0])
	}
	if s.Vars[1].Kind != expr.KindBool {
		t.Errorf("var on = %+v", s.Vars[1])
	}
	if s.Vars[0].Dom.Hi != 100 {
		t.Errorf("domain = %v", s.Vars[0].Dom)
	}
	// round trip through String
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, s.String())
	}
	if s2.Name != s.Name || len(s2.Vars) != len(s.Vars) {
		t.Error("round trip mismatch")
	}
}

func TestParseIntAndInf(t *testing.T) {
	src := `
system t
var n : int [0, 10]
var u : real [-inf, inf]
init n = 0 and u >= 0
trans n' = n + 1 and u' = u
prop n <= 100
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Vars[0].Kind != expr.KindInt {
		t.Error("int kind")
	}
	if !s.Vars[1].Dom.IsEntire() {
		t.Errorf("inf domain = %v", s.Vars[1].Dom)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate x",
		"var x",
		"var x : quux",
		"var x : real [1, 0]",
		"var x : real [a, b]",
		"var x : real (0, 1)",
		"var x : real [0, 1, 2]",
		"system",
		"init x >",
		"var x : real [0,1]\ninit x >= 0\ntrans x' = x\nprop x +",
		"var x : real [0,1]\ninit x >= 0\ntrans x' = x \\",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	// incomplete system (validation failure)
	if _, err := Parse("system t\nvar x : real [0,1]\ninit x >= 0"); err == nil {
		t.Error("incomplete system should fail validation")
	}
}

const vehicleSrc = `# expect: safe
system vehicle-safe-0
var v : real [0, 40]
init v >= 0 and v <= 1
trans v' = v + 0.5 * (4 - 0.01 * v^2)
prop v <= 26
`

// TestParseLongLine checks that the scanner buffer grows past its small
// initial size for a long line.
func TestParseLongLine(t *testing.T) {
	src := "# " + strings.Repeat("a", 200*1024) + "\n" + vehicleSrc
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("200 KiB line: %v", err)
	}
	if s.Name != "vehicle-safe-0" {
		t.Errorf("name = %q", s.Name)
	}
}

// TestParseLineTooLong checks that the 1 MiB line limit still holds, with
// the scanner's error text.
func TestParseLineTooLong(t *testing.T) {
	src := "# " + strings.Repeat("a", 1024*1024) + "\n" + vehicleSrc
	_, err := Parse(src)
	if !errors.Is(err, bufio.ErrTooLong) || err.Error() != "ts: bufio.Scanner: token too long" {
		t.Errorf("over-long line: err = %v", err)
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := Parse(vehicleSrc)
		if err != nil {
			b.Fatal(err)
		}
		benchSys = s
	}
}

// benchSys keeps the benchmarked call from being optimized away.
var benchSys *System

// pendulumSrc is a corpus-like non-linear model (bench/corpus
// pendulum-safe-1): two real states and a sine.
const pendulumSrc = `system pendulum
var th : real [-2, 2]
var w : real [-2, 2]
init th >= 0.4 and th <= 0.45 and w >= 0.4 and w <= 0.45
trans th' = th + 0.2 * w and w' = w + 0.2 * (-1 * sin(th) - 1 * w)
prop th <= 1.2
`

// BenchmarkCompileUnroll compiles 24 steps of pendulumSrc to TNF the way
// the bmc and k-induction unrolling (bmc.Unrolling) does: Trans and Prop
// simplified once, then per step the state variables, Trans@k and Prop@k
// by renaming only, and the plain and robust violation literals over the
// same instance of Prop@k.
func BenchmarkCompileUnroll(b *testing.B) {
	sys, err := Parse(pendulumSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trans, prop := expr.Simplify(sys.Trans), expr.Simplify(sys.Prop)
		t := tnf.NewSystem()
		if _, err := sys.DeclareStep(t, 0); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 24; k++ {
			if _, err := sys.DeclareStep(t, k+1); err != nil {
				b.Fatal(err)
			}
			if err := t.Assert(RenameAt(trans, k)); err != nil {
				b.Fatal(err)
			}
			p := RenameAt(prop, k)
			if err := t.Assert(p); err != nil {
				b.Fatal(err)
			}
			if _, err := t.CompileBool(expr.Not(p)); err != nil {
				b.Fatal(err)
			}
			if _, err := t.CompileBool(expr.Not(expr.Weaken(p, 0.02))); err != nil {
				b.Fatal(err)
			}
		}
		benchTNF = t
	}
}

// benchTNF keeps the compiled system of BenchmarkCompileUnroll live.
var benchTNF *tnf.System

func TestRepeatedSections(t *testing.T) {
	src := `
system t
var x : real [0, 10]
init x >= 0
init x <= 1
trans x' = x + 1
prop x <= 9
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Init.Op != expr.OpAnd {
		t.Errorf("init = %s", s.Init)
	}
	if ok, _ := s.CheckInit(State{"x": 0.5}, 0); !ok {
		t.Error("conjoined init broken")
	}
	if ok, _ := s.CheckInit(State{"x": 2}, 0); ok {
		t.Error("conjoined init not enforced")
	}
}

func TestPairEnv(t *testing.T) {
	env := PairEnv(State{"x": 1}, State{"x": 2})
	if env["x"] != 1 || env["x'"] != 2 {
		t.Errorf("env = %v", env)
	}
}

func TestBoolDomainNormalized(t *testing.T) {
	s := New("t")
	s.AddVar("b", expr.KindBool, interval.New(-5, 5))
	if s.Vars[0].Dom.Lo != 0 || s.Vars[0].Dom.Hi != 1 {
		t.Errorf("bool domain = %v", s.Vars[0].Dom)
	}
}

func TestInvariantSection(t *testing.T) {
	src := `
system inv
var x : real [0, 100]
var y : real [0, 100]
init x = 0 and y = 0
trans x' = x + y and y' = y
invariant y <= 1
prop x <= 200
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// invariant folded away
	if s.Invariant != nil {
		t.Error("invariant not applied")
	}
	// init must now require y <= 1
	if ok, _ := s.CheckInit(State{"x": 0, "y": 0}, 0); !ok {
		t.Error("init should hold at origin")
	}
	// trans must reject next states violating the invariant
	if ok, _ := s.CheckTrans(State{"x": 0, "y": 1}, State{"x": 1, "y": 1}, 1e-9); !ok {
		t.Error("legal transition rejected")
	}
	if ok, _ := s.CheckTrans(State{"x": 0, "y": 2}, State{"x": 2, "y": 2}, 1e-9); ok {
		t.Error("invariant-violating transition accepted")
	}
	// String should render without the invariant line once applied
	if strings.Contains(s.String(), "invariant") {
		t.Errorf("String = %q", s.String())
	}
}

func TestApplyInvariantBuilder(t *testing.T) {
	s := New("b")
	s.AddReal("x", 0, 10)
	s.ParseInit("x = 0")
	s.ParseTrans("x' = x + 1")
	s.ParseProp("x <= 100")
	s.ParseInvariant("x <= 3")
	s.ApplyInvariant()
	if s.Invariant != nil {
		t.Error("invariant not cleared")
	}
	if ok, _ := s.CheckTrans(State{"x": 3}, State{"x": 4}, 1e-9); ok {
		t.Error("x'=4 violates the applied invariant")
	}
	if ok, _ := s.CheckTrans(State{"x": 2}, State{"x": 3}, 1e-9); !ok {
		t.Error("legal step rejected")
	}
	// idempotent when empty
	s.ApplyInvariant()
}
