package icp

import (
	"reflect"
	"testing"

	"icpic3/internal/expr"
	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

// acceptFixture is y = x² ∧ x + y >= 1 over x, y in [-4, 4], with the
// assumptions x >= -3 and y <= 3.
func acceptFixture(t *testing.T) (*tnf.System, []tnf.Lit) {
	t.Helper()
	sys := tnf.NewSystem()
	x, _ := sys.AddVar("x", false, interval.New(-4, 4))
	y, _ := sys.AddVar("y", false, interval.New(-4, 4))
	if err := sys.Assert(expr.MustParse("y = x * x and x + y >= 1")); err != nil {
		t.Fatal(err)
	}
	return sys, []tnf.Lit{tnf.MkGe(x, -3), tnf.MkLe(y, 3)}
}

// TestSolveAcceptRejectingIsSolve: a predicate that never accepts leaves
// the search bit-identical to Solve, over a sequence of queries.
func TestSolveAcceptRejectingIsSolve(t *testing.T) {
	sys, as := acceptFixture(t)
	plain, withPred := New(sys, Options{Eps: 1e-6}), New(sys, Options{Eps: 1e-6})
	calls := 0
	reject := func(lo, hi []float64) bool { calls++; return false }
	queries := [][]tnf.Lit{as, as[:1], {tnf.MkLe(as[1].Var, 0.5)}, as}
	for i, q := range queries {
		a, b := plain.Solve(q), withPred.SolveAccept(q, reject)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: Solve %+v, SolveAccept %+v", i, a, b)
		}
	}
	if plain.Stats != withPred.Stats {
		t.Errorf("stats differ:\n Solve       %+v\n SolveAccept %+v", plain.Stats, withPred.Stats)
	}
	if calls == 0 {
		t.Error("the predicate was never asked")
	}
}

// TestSolveAcceptAtFixpoint: the predicate sees every assumption in
// place, and a true answer ends the search at once with that box.
func TestSolveAcceptAtFixpoint(t *testing.T) {
	sys, as := acceptFixture(t)
	s := New(sys, Options{Eps: 1e-6})
	var seen []interval.Interval
	r := s.SolveAccept(as, func(lo, hi []float64) bool {
		if lo[as[0].Var] < as[0].B || hi[as[1].Var] > as[1].B {
			t.Errorf("assumptions not in place: x in [%v, %v], y in [%v, %v]", lo[as[0].Var], hi[as[0].Var], lo[as[1].Var], hi[as[1].Var])
		}
		for v := range lo {
			seen = append(seen, interval.New(lo[v], hi[v]))
		}
		return true
	})
	if r.Status != StatusSat || !reflect.DeepEqual(r.Box, seen) {
		t.Fatalf("got %v with box %v, want sat with the box the predicate saw %v", r.Status, r.Box, seen)
	}
	if s.Stats.Decisions != 0 {
		t.Errorf("%d decisions before the first fixpoint was accepted", s.Stats.Decisions)
	}
	if w := r.Box[as[0].Var].Width(); w <= 1e-6 {
		t.Errorf("accepted box is %v wide in x: an ε-box, not the first fixpoint", w)
	}
	// the solver stays usable: the same query without the exit is sat
	if r2 := s.Solve(as); r2.Status != StatusSat {
		t.Errorf("follow-up Solve: %v", r2.Status)
	}
}

// TestSolveAcceptUnsatNeverAsked: a query refuted by propagation never
// reaches a fixpoint, so the predicate cannot turn it into Sat.
func TestSolveAcceptUnsatNeverAsked(t *testing.T) {
	sys, as := acceptFixture(t)
	s := New(sys, Options{})
	r := s.SolveAccept([]tnf.Lit{as[0], tnf.MkLe(as[0].Var, -2), tnf.MkLe(as[1].Var, 2)}, func(lo, hi []float64) bool {
		t.Error("predicate asked on an unsatisfiable query")
		return true
	})
	if r.Status != StatusUnsat {
		t.Errorf("status %v, want unsat", r.Status)
	}
}

// TestStatsAdd: Add sums every field, so a counter added to Stats is
// folded across solver rebuilds without a second edit.
func TestStatsAdd(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(&b)
	for i := 0; i < va.NumField(); i++ {
		if got, want := va.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Stats.%s = %d after Add, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}
