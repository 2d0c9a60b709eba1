// Package ts models non-linear symbolic transition systems: typed state
// variables with range invariants, an initial condition, a transition
// relation over current and primed next-state variables, and a safety
// property.  It provides the common substrate for the verification engines
// (BMC, k-induction, ICP-augmented IC3): step-indexed variable
// declaration, formula instantiation, and concrete trace validation.
package ts

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"icpic3/internal/expr"
	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

// VarDecl declares one state variable.
type VarDecl struct {
	Name string
	Kind expr.Kind
	Dom  interval.Interval // range invariant of the variable
}

// System is a symbolic transition system.
type System struct {
	Name  string
	Vars  []VarDecl
	Init  *expr.Expr // over state variables
	Trans *expr.Expr // over state variables and primed variables (x')
	Prop  *expr.Expr // safety property (AG Prop) over state variables
	// Invariant is an optional global state constraint (a modeling
	// assumption): it is conjoined into Init and into both sides of
	// Trans by Finalize/Parse, restricting the state space like the
	// variable ranges do.
	Invariant *expr.Expr

	byName map[string]int
}

// New returns an empty system.
func New(name string) *System {
	return &System{Name: name, byName: make(map[string]int)}
}

// AddVar declares a state variable with the given domain.
func (s *System) AddVar(name string, kind expr.Kind, dom interval.Interval) error {
	if strings.HasSuffix(name, "'") {
		return fmt.Errorf("ts: variable %q must not be primed", name)
	}
	if _, ok := s.byName[name]; ok {
		return fmt.Errorf("ts: variable %q already declared", name)
	}
	if kind == expr.KindBool {
		dom = interval.New(0, 1)
	}
	s.byName[name] = len(s.Vars)
	s.Vars = append(s.Vars, VarDecl{Name: name, Kind: kind, Dom: dom})
	return nil
}

// AddReal declares a real variable with range [lo, hi].
func (s *System) AddReal(name string, lo, hi float64) error {
	return s.AddVar(name, expr.KindReal, interval.New(lo, hi))
}

// AddInt declares an integer variable with range [lo, hi].
func (s *System) AddInt(name string, lo, hi float64) error {
	return s.AddVar(name, expr.KindInt, interval.New(lo, hi))
}

// AddBool declares a Boolean variable.
func (s *System) AddBool(name string) error {
	return s.AddVar(name, expr.KindBool, interval.New(0, 1))
}

// VarIndex returns the index of a declared variable.
func (s *System) VarIndex(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// SetInit installs the initial condition.
func (s *System) SetInit(e *expr.Expr) { s.Init = e }

// SetTrans installs the transition relation.
func (s *System) SetTrans(e *expr.Expr) { s.Trans = e }

// SetProp installs the safety property.
func (s *System) SetProp(e *expr.Expr) { s.Prop = e }

// ParseInit parses and installs the initial condition.
func (s *System) ParseInit(src string) error {
	e, err := expr.Parse(src)
	if err != nil {
		return err
	}
	s.Init = e
	return nil
}

// ParseTrans parses and installs the transition relation.
func (s *System) ParseTrans(src string) error {
	e, err := expr.Parse(src)
	if err != nil {
		return err
	}
	s.Trans = e
	return nil
}

// ParseProp parses and installs the safety property.
func (s *System) ParseProp(src string) error {
	e, err := expr.Parse(src)
	if err != nil {
		return err
	}
	s.Prop = e
	return nil
}

// SetInvariant installs a global state constraint; call ApplyInvariant (or
// let Parse do it) to fold it into Init and Trans.
func (s *System) SetInvariant(e *expr.Expr) { s.Invariant = e }

// ParseInvariant parses and installs a global state constraint.
func (s *System) ParseInvariant(src string) error {
	e, err := expr.Parse(src)
	if err != nil {
		return err
	}
	s.Invariant = e
	return nil
}

// ApplyInvariant conjoins the global state constraint into Init and into
// both the current and next state of Trans, then clears it.  Idempotent
// when no invariant is pending.
func (s *System) ApplyInvariant() {
	if s.Invariant == nil {
		return
	}
	inv := s.Invariant
	primed := inv.Rename(func(n string) string { return n + "'" })
	if s.Init != nil {
		s.Init = expr.And(s.Init, inv)
	} else {
		s.Init = inv
	}
	if s.Trans != nil {
		s.Trans = expr.And(s.Trans, inv, primed)
	} else {
		s.Trans = expr.And(inv, primed)
	}
	s.Invariant = nil
}

// typeEnv returns the typing environment: state vars and their primed
// counterparts.
func (s *System) typeEnv(primed bool) expr.TypeEnv {
	env := expr.TypeEnv{}
	for _, v := range s.Vars {
		env[v.Name] = v.Kind
		if primed {
			env[v.Name+"'"] = v.Kind
		}
	}
	return env
}

// Validate type-checks all formulas and checks that they are Boolean.
func (s *System) Validate() error {
	if s.Init == nil || s.Trans == nil || s.Prop == nil {
		return fmt.Errorf("ts: %s: init, trans and prop must all be set", s.Name)
	}
	checks := []struct {
		name   string
		e      *expr.Expr
		primed bool
	}{
		{"init", s.Init, false},
		{"trans", s.Trans, true},
		{"prop", s.Prop, false},
	}
	for _, c := range checks {
		k, err := c.e.Check(s.typeEnv(c.primed))
		if err != nil {
			return fmt.Errorf("ts: %s: %s: %w", s.Name, c.name, err)
		}
		if k != expr.KindBool {
			return fmt.Errorf("ts: %s: %s is not Boolean", s.Name, c.name)
		}
	}
	return nil
}

// StepName returns the TNF variable name of state variable name at the
// given unrolling step.
func StepName(name string, step int) string {
	return name + "@" + strconv.Itoa(step)
}

// AtStep instantiates a state formula at an unrolling step: x becomes x@k
// and x' becomes x@(k+1).  The formula is simplified first (constant
// folding and conservative identities), which shrinks the TNF encoding
// the solvers see; simplification never looks at names, so it commutes
// with the renaming.
func AtStep(e *expr.Expr, k int) *expr.Expr {
	return RenameAt(expr.Simplify(e), k)
}

// RenameAt is AtStep without the simplification: it instantiates a
// formula that is already simplified, so that an unrolling simplifies
// Trans and Prop once and only renames them per step.
func RenameAt(e *expr.Expr, k int) *expr.Expr {
	return e.Rename(func(n string) string {
		if strings.HasSuffix(n, "'") {
			return StepName(strings.TrimSuffix(n, "'"), k+1)
		}
		return StepName(n, k)
	})
}

// DeclareStep declares all state variables of step k in the TNF system and
// returns their ids in declaration order.  The layout is fixed: on a fresh
// tnf.System, step 0 gets ids 0..n-1 (variable i of s.Vars gets id i), and
// a step 1 declared next gets n..2n-1.  The IC3 engine relies on it: all
// its solvers declare step 0 first, so a cube over the step-0 ids means
// the same box in every one of them.
func (s *System) DeclareStep(sys *tnf.System, k int) ([]tnf.VarID, error) {
	ids := make([]tnf.VarID, len(s.Vars))
	for i, v := range s.Vars {
		id, err := sys.AddVar(StepName(v.Name, k), v.Kind != expr.KindReal, v.Dom)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}

// State is a concrete valuation of the state variables.
type State map[string]float64

// BoxState reads a state out of a solution box: variable i takes
// pick(box[ids[i]]) (a midpoint or an endpoint), rounded for integral
// variables.
func (s *System) BoxState(box []interval.Interval, ids []tnf.VarID, pick func(interval.Interval) float64) State {
	st := State{}
	for i, v := range s.Vars {
		val := pick(box[ids[i]])
		if v.Kind != expr.KindReal {
			val = math.Round(val)
		}
		st[v.Name] = val
	}
	return st
}

// Env returns the state as an expression environment.
func (st State) Env() expr.Env {
	env := expr.Env{}
	for k, v := range st {
		env[k] = v
	}
	return env
}

// PairEnv returns the environment binding cur and next as unprimed and
// primed variables respectively.
func PairEnv(cur, next State) expr.Env {
	env := expr.Env{}
	for k, v := range cur {
		env[k] = v
	}
	for k, v := range next {
		env[k+"'"] = v
	}
	return env
}

// CheckInit reports whether st satisfies the initial condition within tol.
func (s *System) CheckInit(st State, tol float64) (bool, error) {
	v, err := s.Init.EvalApprox(st.Env(), tol)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

// CheckTrans reports whether (cur, next) satisfies the transition relation
// within tol.
func (s *System) CheckTrans(cur, next State, tol float64) (bool, error) {
	v, err := s.Trans.EvalApprox(PairEnv(cur, next), tol)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

// CheckProp reports whether st satisfies the safety property within tol.
func (s *System) CheckProp(st State, tol float64) (bool, error) {
	v, err := s.Prop.EvalApprox(st.Env(), tol)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

// ValidateTol is the counterexample validation tolerance at solver
// precision eps, one rule for every engine and the certifier.
func ValidateTol(eps float64) float64 { return 1000 * eps }

// ValidateTrace replays a trace: trace[0] must satisfy Init, every
// consecutive pair must satisfy Trans, and the final state must violate
// Prop — all within tolerance tol.  A nil error means the trace is a
// genuine (tol-approximate) counterexample.
func (s *System) ValidateTrace(trace []State, tol float64) error {
	if len(trace) == 0 {
		return fmt.Errorf("ts: empty trace")
	}
	if ok, err := s.CheckInit(trace[0], tol); err != nil {
		return fmt.Errorf("ts: init eval: %w", err)
	} else if !ok {
		return fmt.Errorf("ts: trace state 0 does not satisfy init")
	}
	for i := 0; i+1 < len(trace); i++ {
		if ok, err := s.CheckTrans(trace[i], trace[i+1], tol); err != nil {
			return fmt.Errorf("ts: trans eval at step %d: %w", i, err)
		} else if !ok {
			return fmt.Errorf("ts: trace step %d violates trans", i)
		}
	}
	last := trace[len(trace)-1]
	if ok, err := s.CheckProp(last, tol); err != nil {
		return fmt.Errorf("ts: prop eval: %w", err)
	} else if ok {
		return fmt.Errorf("ts: final trace state satisfies prop (not a counterexample)")
	}
	// range invariants
	for i, st := range trace {
		for _, v := range s.Vars {
			val, ok := st[v.Name]
			if !ok {
				return fmt.Errorf("ts: trace state %d misses variable %s", i, v.Name)
			}
			slack := tol * math.Max(1, v.Dom.Mag())
			if val < v.Dom.Lo-slack || val > v.Dom.Hi+slack {
				return fmt.Errorf("ts: trace state %d: %s=%g outside %v", i, v.Name, val, v.Dom)
			}
		}
	}
	return nil
}

// String renders the system in the model-file syntax understood by Parse.
func (s *System) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "system %s\n", s.Name)
	for _, v := range s.Vars {
		switch v.Kind {
		case expr.KindBool:
			fmt.Fprintf(&b, "var %s : bool\n", v.Name)
		case expr.KindInt:
			fmt.Fprintf(&b, "var %s : int [%g, %g]\n", v.Name, v.Dom.Lo, v.Dom.Hi)
		default:
			fmt.Fprintf(&b, "var %s : real [%g, %g]\n", v.Name, v.Dom.Lo, v.Dom.Hi)
		}
	}
	if s.Invariant != nil {
		fmt.Fprintf(&b, "invariant %s\n", s.Invariant)
	}
	fmt.Fprintf(&b, "init %s\n", s.Init)
	fmt.Fprintf(&b, "trans %s\n", s.Trans)
	fmt.Fprintf(&b, "prop %s\n", s.Prop)
	return b.String()
}
