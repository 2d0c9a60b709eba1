package tnf

import (
	"testing"

	"icpic3/internal/interval"
)

func simplifyFixture(t *testing.T) (*System, VarID, VarID) {
	t.Helper()
	sys := NewSystem()
	x, err := sys.AddVar("x", false, interval.New(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	y, err := sys.AddVar("y", false, interval.New(-5, 5))
	if err != nil {
		t.Fatal(err)
	}
	return sys, x, y
}

func TestLitTrueFalse(t *testing.T) {
	d := interval.New(2, 8)
	cases := []struct {
		name        string
		l           Lit
		wantT, want bool // litTrue, litFalse
	}{
		{"le above hi", MkLe(0, 9), true, false},
		{"le at hi", MkLe(0, 8), true, false},
		{"lt at hi", MkLt(0, 8), false, false},
		{"le inside", MkLe(0, 5), false, false},
		{"le below lo", MkLe(0, 1), false, true},
		{"le at lo", MkLe(0, 2), false, false},
		{"lt at lo", MkLt(0, 2), false, true},
		{"ge below lo", MkGe(0, 1), true, false},
		{"ge at lo", MkGe(0, 2), true, false},
		{"gt at lo", MkGt(0, 2), false, false},
		{"ge above hi", MkGe(0, 9), false, true},
		{"ge at hi", MkGe(0, 8), false, false},
		{"gt at hi", MkGt(0, 8), false, true},
	}
	for _, tc := range cases {
		if got := litTrue(tc.l, d); got != tc.wantT {
			t.Errorf("%s: litTrue = %v, want %v", tc.name, got, tc.wantT)
		}
		if got := litFalse(tc.l, d); got != tc.want {
			t.Errorf("%s: litFalse = %v, want %v", tc.name, got, tc.want)
		}
	}
	// an empty domain asserts nothing either way (the conflict is the
	// solver's to report)
	empty := interval.New(3, 2)
	if litTrue(MkLe(0, 5), empty) || litFalse(MkLe(0, 5), empty) {
		t.Error("empty domain evaluated a literal")
	}
}

func TestWeakerLit(t *testing.T) {
	cases := []struct {
		name       string
		a, b, want Lit
	}{
		{"le larger wins", MkLe(0, 2), MkLe(0, 5), MkLe(0, 5)},
		{"ge smaller wins", MkGe(0, 5), MkGe(0, 2), MkGe(0, 2)},
		{"le non-strict beats strict", MkLt(0, 3), MkLe(0, 3), MkLe(0, 3)},
		{"ge non-strict beats strict", MkGt(0, 3), MkGe(0, 3), MkGe(0, 3)},
	}
	for _, tc := range cases {
		if got := weakerLit(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: weakerLit(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
		if got := weakerLit(tc.b, tc.a); got != tc.want {
			t.Errorf("%s reversed: weakerLit(%v, %v) = %v, want %v", tc.name, tc.b, tc.a, got, tc.want)
		}
	}
}

func TestSimplifyMergesSameVarLits(t *testing.T) {
	sys, x, y := simplifyFixture(t)
	// x <= 2 ∨ x <= 7 ∨ y >= 0 collapses to x <= 7 ∨ y >= 0
	sys.AddClause(Clause{MkLe(x, 2), MkLe(x, 7), MkGe(y, 0)})
	st := sys.Simplify()
	if st.LitsDropped != 1 {
		t.Fatalf("LitsDropped = %d, want 1", st.LitsDropped)
	}
	if len(sys.Clauses) != 1 || len(sys.Clauses[0]) != 2 {
		t.Fatalf("clauses after merge: %v", sys.Clauses)
	}
	if sys.Clauses[0][0] != MkLe(x, 7) {
		t.Fatalf("merged literal = %v, want %v", sys.Clauses[0][0], MkLe(x, 7))
	}
}

func TestSimplifyUnitAbsorption(t *testing.T) {
	sys, x, y := simplifyFixture(t)
	n, err := sys.AddVar("n", true, interval.New(0, 9))
	if err != nil {
		t.Fatal(err)
	}
	sys.AddClause(Clause{MkGe(x, 2)}) // non-strict real: absorbed, dropped
	sys.AddClause(Clause{MkLt(y, 3)}) // strict real: hull tightened, clause kept
	sys.AddClause(Clause{MkGt(n, 2)}) // strict integral: normalizes to n >= 3, dropped
	st := sys.Simplify()

	if d := sys.Vars[x].Domain; d.Lo != 2 || d.Hi != 10 {
		t.Errorf("x domain = %v, want [2,10]", d)
	}
	if d := sys.Vars[y].Domain; d.Lo != -5 || d.Hi != 3 {
		t.Errorf("y domain = %v, want [-5,3]", d)
	}
	if d := sys.Vars[n].Domain; d.Lo != 3 || d.Hi != 9 {
		t.Errorf("n domain = %v, want [3,9]", d)
	}
	if len(sys.Clauses) != 1 || sys.Clauses[0][0] != MkLt(y, 3) {
		t.Errorf("clauses after absorption: %v (want only the strict real unit)", sys.Clauses)
	}
	if st.ClausesRemoved != 2 {
		t.Errorf("ClausesRemoved = %d, want 2", st.ClausesRemoved)
	}
}

func TestSimplifyTautologyAndDuplicates(t *testing.T) {
	sys, x, y := simplifyFixture(t)
	sys.AddClause(Clause{MkLe(x, 15), MkGe(y, 0)})  // x <= 15 entailed: tautology
	sys.AddClause(Clause{MkGe(x, 3), MkLe(y, 1)})   // kept
	sys.AddClause(Clause{MkLe(y, 1), MkGe(x, 3)})   // duplicate (order-independent)
	sys.AddClause(Clause{MkGe(x, -3), MkLe(y, -6)}) // first lit entailed: tautology
	st := sys.Simplify()
	if len(sys.Clauses) != 1 {
		t.Fatalf("clauses after simplify: %v, want exactly one", sys.Clauses)
	}
	if st.ClausesRemoved != 3 {
		t.Errorf("ClausesRemoved = %d, want 3", st.ClausesRemoved)
	}
}

func TestSimplifyKeepsRootConflicts(t *testing.T) {
	sys, x, _ := simplifyFixture(t)
	// a unit that would empty the domain is NOT absorbed
	sys.AddClause(Clause{MkGe(x, 20)})
	// a clause whose every literal is domain-false is kept verbatim
	sys.AddClause(Clause{MkLe(x, -1), MkGe(x, 30)})
	sys.Simplify()
	if d := sys.Vars[x].Domain; d.Lo != 0 || d.Hi != 10 {
		t.Fatalf("conflicting unit changed x domain to %v", d)
	}
	if len(sys.Clauses) != 2 {
		t.Fatalf("root-conflict clauses dropped: %v", sys.Clauses)
	}
}

func TestSimplifyFoldsConstraints(t *testing.T) {
	sys := NewSystem()
	x, _ := sys.AddVar("x", false, interval.New(1, 1))
	y, _ := sys.AddVar("y", false, interval.New(2, 2))
	z, _ := sys.AddVar("z", false, interval.New(-100, 100))
	w, _ := sys.AddVar("w", false, interval.New(-100, 100))
	sys.addCon(Constraint{Op: ConAdd, Z: z, X: x, Y: y}) // z = x + y = 3
	sys.addCon(Constraint{Op: ConMul, Z: w, X: z, Y: y}) // w = z * y = 6
	sys.addCon(Constraint{Op: ConAdd, Z: z, X: x, Y: y}) // exact duplicate
	st := sys.Simplify()
	// interval arithmetic rounds outward: a fold lands on a tiny
	// enclosure of the exact value, not a point
	if d := sys.Vars[z].Domain; !d.Contains(3) || d.Hi-d.Lo > 1e-9 {
		t.Errorf("z domain = %v, want a tight enclosure of 3", d)
	}
	if d := sys.Vars[w].Domain; !d.Contains(6) || d.Hi-d.Lo > 1e-9 {
		t.Errorf("w domain = %v, want a tight enclosure of 6", d)
	}
	if st.ConsDeduped != 1 || len(sys.Cons) != 2 {
		t.Errorf("ConsDeduped = %d (%d cons left), want 1 (2 left)", st.ConsDeduped, len(sys.Cons))
	}
}

func TestSimplifyCollapsesUnusedAux(t *testing.T) {
	sys, x, _ := simplifyFixture(t)
	sys.AddClause(Clause{MkGe(x, 3), MkLe(x, 7)}) // keeps x used
	sys.Vars = append(sys.Vars,
		VarInfo{Name: "tmp", Aux: true, Domain: interval.New(-2, 5)},    // -> 0
		VarInfo{Name: "tmp", Aux: true, Domain: interval.New(2, 5)},     // -> 2
		VarInfo{Name: "tmp", Aux: true, Domain: interval.Point(4)},      // already a point
		VarInfo{Name: "named", Aux: false, Domain: interval.New(-2, 5)}, // user var: untouched
	)
	st := sys.Simplify()
	if st.VarsCollapsed != 2 {
		t.Fatalf("VarsCollapsed = %d, want 2", st.VarsCollapsed)
	}
	base := VarID(2)
	if d := sys.Vars[base].Domain; !d.IsPoint() || d.Lo != 0 {
		t.Errorf(".tmp0 domain = %v, want [0,0]", d)
	}
	if d := sys.Vars[base+1].Domain; !d.IsPoint() || d.Lo != 2 {
		t.Errorf(".tmp1 domain = %v, want [2,2]", d)
	}
	if d := sys.Vars[base+3].Domain; d.IsPoint() {
		t.Errorf("named (non-aux) variable collapsed to %v", d)
	}
	if d := sys.Vars[x].Domain; d.Lo != 0 || d.Hi != 10 {
		t.Errorf("clause-used x collapsed to %v", d)
	}
}

// TestSimplifyVarCountStable pins the id-alignment contract: Simplify
// never adds, removes, or renames a variable, so VarIDs captured before
// the pass stay valid and a solver compiled afterwards replays the same
// positions (icp.New/Sync count by position).
func TestSimplifyVarCountStable(t *testing.T) {
	sys, x, y := simplifyFixture(t)
	sys.AddClause(Clause{MkGe(x, 2)})
	sys.AddClause(Clause{MkLe(y, 1), MkLe(y, 4)})
	before := sys.NumVars()
	names := []string{sys.Vars[x].Name, sys.Vars[y].Name}
	sys.Simplify()
	if sys.NumVars() != before {
		t.Fatalf("NumVars %d -> %d", before, sys.NumVars())
	}
	if sys.Vars[x].Name != names[0] || sys.Vars[y].Name != names[1] {
		t.Fatal("Simplify renamed a variable")
	}
}
