package icp

import (
	"testing"

	"icpic3/internal/expr"
	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

// FuzzSolveRetentionEquiv differentially tests assumption-prefix trail
// retention: two solvers over the same nonlinear system — one with
// retention (the default), one with NoPrefixRetention — answer a
// fuzz-derived sequence of assumption queries.  The byte stream is
// decoded so that consecutive queries often share a literal prefix
// (the case retention accelerates) and sometimes restart from scratch
// (the full-backtrack case).  Both solvers must report the same Status
// on every query, every UNSAT core must be a subset of the assumptions
// that produced it, and both solvers must keep the watch invariant
// (checkWatchInvariant) and the antecedent-arena layout (checkAnteArena)
// after every Solve.
func FuzzSolveRetentionEquiv(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x10, 0x03, 0x42, 0x43, 0x05, 0x81})
	f.Add([]byte{0x04, 0x7e, 0x04, 0x02, 0x05, 0x13, 0x99, 0x00, 0x04, 0x7f})
	f.Add([]byte{0x05, 0xff, 0x20, 0x05, 0xff, 0x20, 0x01, 0x05, 0xff, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		sys := tnf.NewSystem()
		vars := make([]tnf.VarID, 0, 2)
		for _, n := range []string{"x", "y"} {
			v, err := sys.AddVar(n, false, interval.New(-4, 4))
			if err != nil {
				t.Fatal(err)
			}
			vars = append(vars, v)
		}
		if err := sys.Assert(expr.MustParse("x*x + y*y <= 4 and x + y >= 1")); err != nil {
			t.Fatal(err)
		}
		on := New(sys, Options{Eps: 1e-3})
		off := New(sys, Options{Eps: 1e-3, NoPrefixRetention: true})

		var as []tnf.Lit
		i := 0
		for q := 0; i < len(data) && q < 32; q++ {
			ctl := data[i]
			i++
			// bit 0: extend the previous assumptions (shared prefix) or
			// restart; bits 1-2: how many fresh literals to append
			if ctl&1 == 0 || len(as) > 6 {
				as = as[:0]
			}
			for j := int(ctl>>1) % 3; j > 0 && i < len(data); j-- {
				b := data[i]
				i++
				lit := tnf.Lit{
					Var:    vars[int(b&1)],
					B:      float64(int(b>>2)&0x1f)/4.0 - 4.0, // [-4, 3.75]
					Strict: b&0x80 != 0,
				}
				if b&2 == 0 {
					lit.Dir = tnf.DirGe
				} else {
					lit.Dir = tnf.DirLe
				}
				as = append(as, lit)
			}
			rOn := on.Solve(as)
			rOff := off.Solve(as)
			checkWatchInvariant(t, on)
			checkWatchInvariant(t, off)
			checkAnteArena(t, on)
			checkAnteArena(t, off)
			if rOn.Status != rOff.Status {
				t.Fatalf("query %d %v: retention %v, no-retention %v",
					q, as, rOn.Status, rOff.Status)
			}
			if rOn.Status == StatusUnsat {
				checkCoreSubset(t, "retention", rOn.Core, as)
				checkCoreSubset(t, "no-retention", rOff.Core, as)
			}
		}
	})
}

// checkCoreSubset fails unless every core literal is one of the
// assumptions that produced the UNSAT answer.
func checkCoreSubset(t *testing.T, who string, core, as []tnf.Lit) {
	t.Helper()
	for _, l := range core {
		found := false
		for _, a := range as {
			if l == a {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s core literal %v not among assumptions %v", who, l, as)
		}
	}
}
