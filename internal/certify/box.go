package certify

import (
	"fmt"

	"icpic3/internal/engine"
	"icpic3/internal/expr"
	"icpic3/internal/icp"
	"icpic3/internal/tnf"
	"icpic3/internal/ts"
)

// Box discharges the proof obligations of a box invariant
// Inv = Prop ∧ ⋀_c ¬c over a system:
//
//  1. Init ⊆ Inv      Init ∧ ¬Prop and Init ∧ c are UNSAT for every cube c
//  2. Inv ∧ T ⊆ Inv'  Inv ∧ T ∧ ¬Prop' and Inv ∧ T ∧ c' are UNSAT
//  3. Inv ⊆ Prop      trivial: Prop is a conjunct of Inv
//
// Every check relies only on the UNSAT side of the ICP solver, which is
// sound over the reals.  Certification (BoxInvariant) asks all of them;
// IC3's frame seeding asks the cube obligations of a prior proof's
// cubes and keeps the subset that passes.
type Box struct {
	init    *icp.Solver // Init over step 0
	badInit tnf.Lit     // ¬Prop@0 in init
	step    *icp.Solver // Trans ∧ Prop@0 ∧ ⋀¬c over steps 0 and 1
	badNext tnf.Lit     // ¬Prop@1 in step
	nextIDs []tnf.VarID
	cubes   [][]tnf.Lit // over step 0
}

// NewBox compiles the Init solver over step 0 and the step solver over
// steps 0 and 1, with Trans and Prop@0 asserted and the ¬cube clauses
// added as hard clauses.  Both systems declare step 0 first, so the
// cubes' literals (CubeLits) are their step-0 literals.
func NewBox(sys *ts.System, cubes []engine.Cube, opts icp.Options) (*Box, error) {
	if opts.Eps <= 0 {
		opts.Eps = engine.DefaultEps
	}
	b := &Box{cubes: make([][]tnf.Lit, len(cubes))}
	for i, c := range cubes {
		lits, err := CubeLits(sys, c)
		if err != nil {
			return nil, err
		}
		b.cubes[i] = lits
	}

	initSys := tnf.NewSystem()
	if _, err := sys.DeclareStep(initSys, 0); err != nil {
		return nil, err
	}
	if err := initSys.Assert(ts.AtStep(sys.Init, 0)); err != nil {
		return nil, err
	}
	badInit, err := initSys.CompileBool(expr.Not(ts.AtStep(sys.Prop, 0)))
	if err != nil {
		return nil, err
	}
	b.init, b.badInit = icp.New(initSys, opts), badInit

	stepSys := tnf.NewSystem()
	if _, err := sys.DeclareStep(stepSys, 0); err != nil {
		return nil, err
	}
	if b.nextIDs, err = sys.DeclareStep(stepSys, 1); err != nil {
		return nil, err
	}
	if err := stepSys.Assert(ts.AtStep(sys.Trans, 0)); err != nil {
		return nil, err
	}
	if err := stepSys.Assert(ts.AtStep(sys.Prop, 0)); err != nil {
		return nil, err
	}
	if b.badNext, err = stepSys.CompileBool(expr.Not(ts.AtStep(sys.Prop, 1))); err != nil {
		return nil, err
	}
	b.step = icp.New(stepSys, opts)
	for _, lits := range b.cubes {
		cl := make(tnf.Clause, len(lits))
		for i, l := range lits {
			cl[i] = stepSys.NegLit(l)
		}
		b.step.AddClause(cl)
	}
	return b, nil
}

// CubeLits is the one importer of named cubes: it turns c into solver
// literals over the step-0 state variables, whose ids are their
// positions in sys.Vars in every system that declares step 0 first.
func CubeLits(sys *ts.System, c engine.Cube) ([]tnf.Lit, error) {
	lits := make([]tnf.Lit, len(c))
	for i, b := range c {
		idx, ok := sys.VarIndex(b.Var)
		if !ok {
			return nil, fmt.Errorf("ic3icp: certify: unknown variable %q", b.Var)
		}
		dir := tnf.DirGe
		if b.Le {
			dir = tnf.DirLe
		}
		lits[i] = tnf.Lit{Var: tnf.VarID(idx), Dir: dir, B: b.B, Strict: b.Strict}
	}
	return lits, nil
}

// InitMeets asks Init ∧ cube i.
func (b *Box) InitMeets(i int) icp.Status { return b.init.Solve(b.cubes[i]).Status }

// StepMeets asks Inv ∧ T ∧ (cube i)'.
func (b *Box) StepMeets(i int) icp.Status {
	next := make([]tnf.Lit, len(b.cubes[i]))
	for j, l := range b.cubes[i] {
		l.Var = b.nextIDs[l.Var]
		next[j] = l
	}
	return b.step.Solve(next).Status
}

// BoxInvariant certifies a Safe verdict: it asks every obligation of
// Box in order and returns the first that is not UNSAT, so a nil return
// is a genuine proof certificate.  The error texts keep the "ic3icp:"
// prefix of the engine whose invariants they check.
func BoxInvariant(sys *ts.System, cubes []engine.Cube, opts icp.Options) error {
	if err := sys.Validate(); err != nil {
		return err
	}
	b, err := NewBox(sys, cubes, opts)
	if err != nil {
		return err
	}
	if s := b.init.Solve([]tnf.Lit{b.badInit}).Status; s != icp.StatusUnsat {
		return fmt.Errorf("ic3icp: certify: Init ∧ ¬Prop is %v", s)
	}
	for i, c := range cubes {
		if s := b.InitMeets(i); s != icp.StatusUnsat {
			return fmt.Errorf("ic3icp: certify: Init ∧ (%s) is %v", c, s)
		}
	}
	if s := b.step.Solve([]tnf.Lit{b.badNext}).Status; s != icp.StatusUnsat {
		return fmt.Errorf("ic3icp: certify: Inv ∧ T ∧ ¬Prop' is %v", s)
	}
	for i, c := range cubes {
		if s := b.StepMeets(i); s != icp.StatusUnsat {
			return fmt.Errorf("ic3icp: certify: Inv ∧ T ∧ (%s)' is %v", c, s)
		}
	}
	return nil
}
