package tnf

import (
	"math"
	"sort"
	"strings"

	"icpic3/internal/interval"
)

// Level-0 simplification (DESIGN.md §17).
//
// Simplify is a compile-time preprocessing pass over a finished system:
// it performs exactly the deductions the CDCL(ICP) solver would make at
// decision level 0 — unit-clause absorption into domains, forward and
// inverse constant folding through the primitive constraints, and
// domain-based literal evaluation — plus structural cleanups (duplicate
// constraints and clauses, literal merging, unused-auxiliary collapse)
// the solver never revisits.  Every solver subsequently compiled from
// the system replays a smaller problem; for ic3icp that is the main
// solver, its rebuilds, and the F_∞ probe prototype.
//
// The pass never removes or renumbers variables: VarIDs are stable
// handles held by callers (state-variable tables, captured literals),
// and solver/system id alignment is an invariant of the op-log replay
// machinery.  It only rewrites Cons, Clauses, and Domains, all in
// soundness-preserving directions:
//
//   - dropping a clause requires it to be entailed (tautological under
//     domains, or a duplicate);
//   - dropping a literal requires it to be unsatisfiable under the
//     variable's domain;
//   - tightening a domain requires the excluded points to be infeasible
//     (unit fact or interval evaluation of a constraint);
//   - an exact duplicate constraint is entailed by its twin.
//
// A deduction that would empty a domain or a clause is not applied: the
// conflict is real, but the solver's root-level machinery is the single
// place that turns conflicts into verdicts.
func (s *System) Simplify() SimplifyStats {
	var st SimplifyStats
	for round := 0; round < 4; round++ {
		changed := s.foldConstraints()
		if s.simplifyClauses(&st) {
			changed = true
		}
		if !changed {
			break
		}
	}
	s.dedupConstraints(&st)
	s.collapseUnusedAux(&st)
	// Compiling into the system after Simplify stays legal (ic3icp adds
	// Init late), but the structural cache may point at auxiliaries whose
	// domains were tightened or collapsed above; drop it so later
	// compilations build fresh variables instead of resurrecting them.
	s.cse, s.ites = make(map[cseKey]VarID), nil
	return st
}

// SimplifyStats reports what one Simplify call removed.
type SimplifyStats struct {
	ConsDeduped    int // exact-duplicate constraints removed
	ClausesRemoved int // entailed or duplicate clauses removed
	LitsDropped    int // domain-false or merged literals removed
	VarsCollapsed  int // unused auxiliaries collapsed to a point
}

// Pruned is the total operation count removed, surfaced by engines as
// the tnfOpsPruned counter.
func (st SimplifyStats) Pruned() int {
	return st.ConsDeduped + st.ClausesRemoved + st.LitsDropped + st.VarsCollapsed
}

// litTrue reports whether l holds for every point of d (an entailed
// literal: any clause containing it is tautological).
func litTrue(l Lit, d interval.Interval) bool {
	if d.IsEmpty() {
		return false
	}
	if l.Dir == DirLe {
		return d.Hi < l.B || (d.Hi == l.B && !l.Strict)
	}
	return d.Lo > l.B || (d.Lo == l.B && !l.Strict)
}

// litFalse reports whether l holds for no point of d (an unsatisfiable
// literal: droppable from any clause).
func litFalse(l Lit, d interval.Interval) bool {
	if d.IsEmpty() {
		return false
	}
	if l.Dir == DirLe {
		return d.Lo > l.B || (d.Lo == l.B && l.Strict)
	}
	return d.Hi < l.B || (d.Hi == l.B && l.Strict)
}

// weakerLit returns the weaker (more easily satisfied) of two literals
// on the same variable and direction; a ∨ b collapses to it.
func weakerLit(a, b Lit) Lit {
	if a.Dir == DirLe {
		if b.B > a.B || (b.B == a.B && a.Strict) {
			return b
		}
		return a
	}
	if b.B < a.B || (b.B == a.B && a.Strict) {
		return b
	}
	return a
}

// absorbUnit tightens v's domain by the unit fact l.  It reports
// whether the unit clause is now entailed by the domain and can be
// dropped: always for integral variables (strictness normalizes away)
// and non-strict reals; a strict real bound only tightens the closed
// hull, so its clause must stay to preserve the open edge.
func (s *System) absorbUnit(l Lit) bool {
	info := &s.Vars[l.Var]
	d := info.Domain
	b, strict := l.B, l.Strict
	if info.Integer {
		if l.Dir == DirLe {
			b = intUpper(b, strict)
		} else {
			b = intLower(b, strict)
		}
		strict = false
	}
	var nd interval.Interval
	if l.Dir == DirLe {
		nd = d.Intersect(interval.New(d.Lo, b))
	} else {
		nd = d.Intersect(interval.New(b, d.Hi))
	}
	if nd.IsEmpty() {
		return false // real root conflict: leave it to the solver
	}
	info.Domain = nd
	return !strict
}

// foldConstraints propagates declared domains through every primitive
// constraint (forward on the result, inverse through the ConAdd/ConMul
// encodings of subtraction and division, whose fresh variable sits in
// an operand slot).  This is one deterministic slice of the root HC4
// fixpoint; anything it misses the solver still derives.  Reports
// whether any domain changed.
func (s *System) foldConstraints() bool {
	changed := false
	tighten := func(v VarID, nd interval.Interval) {
		info := &s.Vars[v]
		nd = info.Domain.Intersect(nd)
		if info.Integer {
			nd = tightenIntegral(nd)
		}
		if nd.IsEmpty() || nd.Equal(info.Domain) {
			return
		}
		info.Domain = nd
		changed = true
	}
	for _, c := range s.Cons {
		dx := s.Vars[c.X].Domain
		switch c.Op {
		case ConAdd:
			dy := s.Vars[c.Y].Domain
			tighten(c.Z, dx.Add(dy))
			tighten(c.X, s.Vars[c.Z].Domain.Sub(dy))
			tighten(c.Y, s.Vars[c.Z].Domain.Sub(s.Vars[c.X].Domain))
		case ConMul:
			dy := s.Vars[c.Y].Domain
			tighten(c.Z, dx.Mul(dy))
			tighten(c.X, interval.InvMulX(s.Vars[c.Z].Domain, dy))
			tighten(c.Y, interval.InvMulX(s.Vars[c.Z].Domain, s.Vars[c.X].Domain))
		case ConNeg:
			tighten(c.Z, dx.Neg())
			tighten(c.X, s.Vars[c.Z].Domain.Neg())
		case ConMin:
			tighten(c.Z, dx.Min(s.Vars[c.Y].Domain))
		case ConMax:
			tighten(c.Z, dx.Max(s.Vars[c.Y].Domain))
		case ConAbs:
			tighten(c.Z, dx.Abs())
		case ConPow:
			tighten(c.Z, dx.PowInt(c.N))
		case ConSqrt:
			tighten(c.Z, dx.Sqrt())
		case ConExp:
			tighten(c.Z, dx.Exp())
		case ConLog:
			tighten(c.Z, dx.Log())
		case ConSin:
			tighten(c.Z, dx.Sin())
		case ConCos:
			tighten(c.Z, dx.Cos())
		case ConTan:
			tighten(c.Z, dx.Tan())
		case ConAtan:
			tighten(c.Z, dx.Atan())
		case ConTanh:
			tighten(c.Z, dx.Tanh())
		}
	}
	return changed
}

// simplifyClauses rewrites the clause set once: same-variable literal
// merging, domain evaluation, unit absorption, and duplicate removal.
// Reports whether anything changed.
func (s *System) simplifyClauses(st *SimplifyStats) bool {
	changed := false
	seen := make(map[string]bool, len(s.Clauses))
	kept := s.Clauses[:0]
	for _, cl := range s.Clauses {
		merged := s.mergeLits(cl, st)
		out := merged[:0]
		taut := false
		dropped := 0
		for _, l := range merged {
			d := s.Vars[l.Var].Domain
			if litTrue(l, d) {
				taut = true
				break
			}
			if litFalse(l, d) {
				dropped++
				continue
			}
			out = append(out, l)
		}
		if taut {
			st.ClausesRemoved++
			changed = true
			continue
		}
		if len(out) == 0 {
			// every literal is domain-false: a genuine root conflict —
			// keep the (merged, equivalent) clause so the solver proves it
			kept = append(kept, merged)
			continue
		}
		st.LitsDropped += dropped
		if dropped > 0 {
			changed = true
		}
		if len(out) == 1 && s.absorbUnit(out[0]) {
			st.ClausesRemoved++
			changed = true
			continue
		}
		key := clauseKey(out)
		if seen[key] {
			st.ClausesRemoved++
			changed = true
			continue
		}
		seen[key] = true
		kept = append(kept, out)
	}
	s.Clauses = kept
	return changed
}

// mergeLits collapses literals on the same variable and direction to
// the weakest one (their disjunction).  The clause is rewritten in
// place; literal order is otherwise preserved.
func (s *System) mergeLits(cl Clause, st *SimplifyStats) Clause {
	type vd struct {
		v VarID
		d Dir
	}
	var at map[vd]int
	out := cl[:0]
	for _, l := range cl {
		k := vd{l.Var, l.Dir}
		if at == nil {
			at = make(map[vd]int, len(cl))
		}
		if i, ok := at[k]; ok {
			out[i] = weakerLit(out[i], l)
			st.LitsDropped++
			continue
		}
		at[k] = len(out)
		out = append(out, l)
	}
	return out
}

// clauseKey is a canonical (order-independent) clause fingerprint for
// duplicate elimination.
func clauseKey(cl Clause) string {
	sorted := append(Clause(nil), cl...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Var != b.Var {
			return a.Var < b.Var
		}
		if a.Dir != b.Dir {
			return a.Dir < b.Dir
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return !a.Strict && b.Strict
	})
	var sb strings.Builder
	for _, l := range sorted {
		sb.WriteString(l.String())
		sb.WriteByte('|')
	}
	return sb.String()
}

// dedupConstraints removes exact-duplicate primitive constraints (the
// structural cache prevents most, but expression-level rewrites can
// still compile the same primitive twice).
func (s *System) dedupConstraints(st *SimplifyStats) {
	seen := make(map[Constraint]bool, len(s.Cons))
	kept := s.Cons[:0]
	for _, c := range s.Cons {
		if seen[c] {
			st.ConsDeduped++
			continue
		}
		seen[c] = true
		kept = append(kept, c)
	}
	s.Cons = kept
}

// collapseUnusedAux pins every auxiliary variable that no constraint or
// clause mentions to a single point of its domain.  Such variables are
// unconstrained — dead .tmp/.c subterms left behind by rewrites — so
// fixing their value changes no answer, and a point domain is free for
// the solver: never branched, never contracted, one trail event at
// most.  Named (user) variables are never touched: callers may still
// assume over them.
func (s *System) collapseUnusedAux(st *SimplifyStats) {
	used := make([]bool, len(s.Vars))
	for _, c := range s.Cons {
		used[c.Z] = true
		used[c.X] = true
		switch c.Op {
		case ConAdd, ConMul, ConMin, ConMax:
			used[c.Y] = true
		}
	}
	for _, cl := range s.Clauses {
		for _, l := range cl {
			used[l.Var] = true
		}
	}
	for i := range s.Vars {
		info := &s.Vars[i]
		if used[i] || !info.Aux || info.Domain.IsEmpty() || info.Domain.IsPoint() {
			continue
		}
		d := info.Domain
		switch {
		case d.Contains(0):
			info.Domain = interval.Point(0)
		case !math.IsInf(d.Lo, -1):
			info.Domain = interval.Point(d.Lo)
		default:
			info.Domain = interval.Point(d.Hi)
		}
		st.VarsCollapsed++
	}
}
