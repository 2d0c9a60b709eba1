package ic3icp

import (
	"fmt"

	"icpic3/internal/icp"
	"icpic3/internal/tnf"
)

// Triggered clause pushing and the main solver's lifecycle.
//
// Two pieces of machinery live here:
//
//  1. Push triggers (Suda, "Triggered Clause Pushing for IC3").  A
//     failed consecution query for cube c at frame i has a SAT witness:
//     a box w of F_i-states with a successor inside c.  The push cannot
//     start succeeding until w is refuted, i.e. until some new clause
//     ¬g lands in F_i with g ∩ w ≠ ∅.  Each frameCube therefore records
//     the witness of its last failed push and goes dormant
//     (pending=false); markTriggered re-arms it when a new clause might
//     refute the witness, and the propagation sweep queries only
//     pending cubes instead of every clause of every frame.
//
//     Soundness: skipping an untriggered push never adds a clause, so
//     every F_i remains an overapproximation of the i-step reachable
//     states; the empty-frame fixpoint test is exact regardless of
//     which pushes were attempted.  Completeness caveat: the ICP
//     solver's SAT answers are ε-candidates, so a "witness" may be
//     spurious and a re-query with more learned clauses could succeed
//     even though no frame clause refuted the witness.  The sweep
//     therefore keeps Unknown answers pending, triggers conservatively
//     (box intersection, missing witness = always re-arm), and falls
//     back to one full re-sweep after a propagation pass that pushed
//     nothing while skips were in effect (pushStalled) — so a fixpoint
//     the untriggered algorithm would reach is reached at most one
//     major iteration later.
//
//  2. A durable-op log.  Frame content — activation variables and
//     guarded clauses — is recorded as ops over stable tnf-level
//     literals; any solver compiled from tnfMain can replay the log
//     from an arbitrary prefix.  The main solver, which answers every
//     blocking and pushing query, consumes ops eagerly, and the same
//     log rebuilds it from scratch once retired one-shot activation
//     variables accumulate (mainRebuildSlack), bounding NumVars over a
//     long run.  Rebuild points are a function of deterministic query
//     counts only, so verdicts stay reproducible.

// frameCube is a blocked cube plus its push-trigger state.
type frameCube struct {
	cube    icpCube
	pending bool    // a push attempt is due at the next propagation sweep
	witness icpCube // current-state box that blocked the last push attempt
}

// durableOp is one replayable frame-content operation: opening a frame
// level (newFrame) or installing a clause body under the guard of a
// level (level >= 0) or unguarded (level < 0, the F_∞ clauses).  Bodies
// are expressed over tnf-level variable ids, which are identical in
// every solver compiled from tnfMain; only the activation-variable ids
// differ per solver, so the guard literal is materialized at replay.
type durableOp struct {
	newFrame bool
	level    int
	body     tnf.Clause
}

// mainRebuildSlack bounds how many retired one-shot .tmp activation
// variables the main solver may accumulate before it is rebuilt from
// tnfMain plus the durable-op log.
const mainRebuildSlack = 1024

func (ch *checker) appendOp(op durableOp) { ch.ops = append(ch.ops, op) }

// applyOps replays ops[from:] onto a solver, appending any new
// activation variables to acts and returning it.
func applyOps(s *icp.Solver, acts []tnf.VarID, ops []durableOp, from int) []tnf.VarID {
	for _, op := range ops[from:] {
		if op.newFrame {
			acts = append(acts, s.AddBoolVar(fmt.Sprintf(".frame%d", len(acts))))
			continue
		}
		if op.level < 0 {
			s.AddClause(op.body)
			continue
		}
		cl := make(tnf.Clause, 0, len(op.body)+1)
		cl = append(cl, tnf.MkLe(acts[op.level], 0))
		cl = append(cl, op.body...)
		s.AddClause(cl)
	}
	return acts
}

// applyMain brings the main solver up to date with the op log.
func (ch *checker) applyMain() {
	ch.frameAct = applyOps(ch.main, ch.frameAct, ch.ops, ch.mainApplied)
	ch.mainApplied = len(ch.ops)
}

// rebuildMain replaces the main solver with a fresh compilation of
// tnfMain plus a full replay of the op log.  Learned clauses are
// dropped, but the rebuild point is a deterministic function of the
// query count, so runs remain reproducible.  Solver-level counters the
// run surfaces are absorbed first so CheckFull reports totals across
// rebuilds.
func (ch *checker) rebuildMain() {
	ch.absorbMainStats()
	ch.main = icp.New(ch.tnfMain, ch.opts.Solver)
	ch.frameAct = applyOps(ch.main, ch.frameAct[:0], ch.ops, 0)
	ch.mainApplied = len(ch.ops)
	ch.mainRetired = 0
	ch.stats["solverRebuilds"]++
}

// absorbMainStats folds the surfaced counters of the main solver into
// the run-level base.  It runs once per main solver: just before a
// rebuild discards it, and at the end of the run.  Of the search
// counters only Revisions is reported; the rest fingerprint the search
// for the work-profile golden test.
func (ch *checker) absorbMainStats() {
	st, b := &ch.main.Stats, &ch.statsBase
	b.WatchVisits += st.WatchVisits
	b.ClausesDeleted += st.ClausesDeleted
	b.LitsMinimized += st.LitsMinimized
	b.SubsumedFrameClauses += st.SubsumedFrameClauses
	b.PrefixKeptLevels += st.PrefixKeptLevels
	b.TrailEventsSaved += st.TrailEventsSaved
	b.Revisions += st.Revisions
	b.Propagations += st.Propagations
	b.Contractions += st.Contractions
	b.Conflicts += st.Conflicts
	b.Decisions += st.Decisions
}

// markTriggered re-arms dormant push attempts that the new clause ¬g
// might unblock.  In the delta encoding a clause installed at level hi
// strengthens F_i for every i <= hi (hi < 0: every frame, the F_∞
// case), so dormant cubes of frames lo..hi whose witness intersects g
// become pending again; a cube with no recorded witness (Unknown
// answer, resweep) is re-armed unconditionally.  A freshly blocked
// cube passes lo=1; a clause pushed from level hi-1 to hi passes
// lo=hi, because frames below already carried it.
func (ch *checker) markTriggered(g icpCube, lo, hi int) {
	if hi < 0 || hi >= len(ch.frames) {
		hi = len(ch.frames) - 1
	}
	if lo < 1 {
		lo = 1
	}
	for i := lo; i <= hi; i++ {
		for _, fc := range ch.frames[i] {
			if fc.pending {
				continue
			}
			if fc.witness == nil || !cubesDisjoint(g, fc.witness) {
				fc.pending = true
				ch.stats["pushRearmed"]++
			}
		}
	}
}

// cubesDisjoint reports whether two boxes are provably disjoint: some
// variable has an upper bound in one below a lower bound in the other.
// Missing bounds extend to the variable's full range (boxCube trims
// range-wide bounds), which errs toward "may intersect" — the sound
// side for trigger re-arming.
func cubesDisjoint(a, b icpCube) bool {
	for _, la := range a {
		for _, lb := range b {
			if la.Var != lb.Var || la.Dir == lb.Dir {
				continue
			}
			up, lo := la, lb
			if la.Dir == tnf.DirGe {
				up, lo = lb, la
			}
			if up.B < lo.B || (up.B == lo.B && (up.Strict || lo.Strict)) {
				return true
			}
		}
	}
	return false
}
