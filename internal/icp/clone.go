package icp

import "icpic3/internal/tnf"

// Clone returns a deep snapshot of the solver, safe to use from another
// goroutine.  The snapshot invariant:
//
//   - Clone must be taken at decision level 0, i.e. between Solve calls
//     (every Solve ends with a backtrack to level 0, so any quiescent
//     solver qualifies).  Cloning mid-search panics.
//   - Nothing mutable is shared: domains, trails, constraint queues,
//     clause database, watch lists, saved phases and activities are all
//     copied, so the clone and the original may Solve concurrently — in
//     particular a reduceDB in either cannot corrupt the other.
//   - Options are copied by value; the Stop callback (if any) is shared
//     and must therefore be goroutine-safe (engine.Budget is).
//   - Sync progress counters are carried over: a clone can keep pulling
//     new content from the same tnf.System with Sync, provided the
//     system itself is not being grown concurrently.
//
// Stats start at zero so that per-clone work can be aggregated by the
// caller without double counting.
//
// Retention interaction: a quiescent solver may be parked at a retained
// assumption-prefix level rather than at 0 (see retainOnExit).  Clone
// deliberately RESETS that state — on the receiver, then implicitly on
// the clone — instead of copying it: the clone has no query history of
// its own, a retained trail is just a cache of re-derivable propagation
// (dropping it never loses information), and cloning at level 0 keeps
// the clone-before-reduceDB invariants exactly as they were.  Deferred
// root replays are folded into newClause first, so both solvers still
// re-establish retired-unit root facts.  Cloning a solver that is
// mid-search (level > 0 beyond its retained prefix) still panics.
func (s *Solver) Clone() *Solver {
	if s.level() != 0 {
		if int(s.level()) == len(s.retained) {
			s.resetRetention()
		} else {
			panic("icp: Clone requires decision level 0")
		}
	}
	c := &Solver{
		opts:   s.opts,
		actInc: s.actInc,
		claInc: s.claInc,

		vars:     append([]tnf.VarInfo(nil), s.vars...),
		initial:  append(s.initial[:0:0], s.initial...),
		lo:       append([]float64(nil), s.lo...),
		hi:       append([]float64(nil), s.hi...),
		loOpen:   append([]bool(nil), s.loOpen...),
		hiOpen:   append([]bool(nil), s.hiOpen...),
		activity: append([]float64(nil), s.activity...),

		phase:      append([]int8(nil), s.phase...),
		phaseStamp: append([]int64(nil), s.phaseStamp...),
		phaseEpoch: s.phaseEpoch,

		cons:    append([]tnf.Constraint(nil), s.cons...),
		varCons: cloneLists(s.varCons),

		watchLe: cloneLists(s.watchLe),
		watchGe: cloneLists(s.watchGe),

		trailLim:  nil, // level 0
		lastLoEv:  append([]int32(nil), s.lastLoEv...),
		lastHiEv:  append([]int32(nil), s.lastHiEv...),
		propHead:  s.propHead,
		conQueue:  append([]int32(nil), s.conQueue...),
		inQueue:   append([]bool(nil), s.inQueue...),
		newClause: append([]int32(nil), s.newClause...),

		rootConflict: s.rootConflict,

		nVarsSynced:    s.nVarsSynced,
		nConsSynced:    s.nConsSynced,
		nClausesSynced: s.nClausesSynced,
		lastReduceSize: s.lastReduceSize,

		branchMain: append([]tnf.VarID(nil), s.branchMain...),
		branchAux:  append([]tnf.VarID(nil), s.branchAux...),
	}
	// Clause literals go into one bulk backing array (full-slice-expr
	// sub-slices, so a later append to any clause reallocates instead of
	// clobbering its neighbour).  Clause bodies are immutable after
	// construction, making this safe; it turns O(#clauses) allocations
	// per snapshot into one.
	totalLits := 0
	for i := range s.clauses {
		totalLits += len(s.clauses[i].lits)
	}
	litBacking := make([]tnf.Lit, 0, totalLits)
	c.clauses = make([]clause, len(s.clauses))
	for i := range s.clauses {
		cl := s.clauses[i]
		a := len(litBacking)
		litBacking = append(litBacking, cl.lits...)
		cl.lits = litBacking[a:len(litBacking):len(litBacking)]
		c.clauses[i] = cl
	}
	// The trail still holds level-0 (formula-implied) events; copying
	// them with their antecedents keeps conflict analysis on the clone
	// from aliasing the original.
	c.trail = append([]event(nil), s.trail...)
	c.antes = append([]int32(nil), s.antes...)
	return c
}

// cloneLists deep-copies a slice of slices (the var-constraint and
// watch lists) into one bulk backing array.  The inner slices are
// full-slice-expression sub-slices (cap == len): the solver's in-place
// compaction of a list stays inside that list's own region, and any
// growth reallocates.
func cloneLists[T any](xs [][]T) [][]T {
	total := 0
	for _, x := range xs {
		total += len(x)
	}
	backing := make([]T, 0, total)
	out := make([][]T, len(xs))
	for i, x := range xs {
		if len(x) == 0 {
			continue
		}
		a := len(backing)
		backing = append(backing, x...)
		out[i] = backing[a:len(backing):len(backing)]
	}
	return out
}
