package ic3icp

import (
	"strconv"

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
//  2. A durable-op log and the query solvers' one lifecycle.  Frame
//     content — activation variables and guarded clauses — and the
//     unguarded F_∞ clauses are recorded as ops over stable tnf-level
//     literals.  IC3 asks its consecution-shaped queries on two
//     querySolvers, both compiled from tnfMain and fed from the log:
//     main replays every op eagerly and answers every blocking, pushing
//     and bad-state query; the F_∞ probe solver replays only the
//     unguarded ops, lazily before each probe.  Every one-shot query
//     leaves a retired activation variable behind, so once a solver has
//     retired its slack of them it is rebuilt from a fresh compilation
//     plus a replay, bounding NumVars over a long run.  Rebuild points
//     are a function of deterministic query counts only, so verdicts
//     stay reproducible.

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

// Rebuild slacks: how many retired one-shot .tmp activation variables
// a query solver may accumulate before it is rebuilt.  A rebuild drops
// learned clauses, so the slack is part of the search: the probe
// solver's 257 keeps the rebuild points its probes have always had.
const (
	mainRebuildSlack  = 1024
	probeRebuildSlack = 257
)

// querySolver is one of IC3's two long-lived query solvers: a solver
// compiled from tnfMain plus its position in the durable-op log.
type querySolver struct {
	*icp.Solver
	acts    []tnf.VarID // per-level frame activation variables (main only)
	applied int         // ops[:applied] have been replayed
	retired int         // one-shot activation variables retired since the build
	slack   int         // rebuild once retired reaches it
	// probe marks the F_∞ probe solver: it replays only the unguarded
	// ops, and its rebuilds are not counted.
	probe bool
	// total accumulates the counters of the solvers q has discarded;
	// absorb folds in the current one
	total icp.Stats
}

// newQuerySolver compiles a query solver and replays the op log onto it.
func (ch *checker) newQuerySolver(slack int, probe bool) *querySolver {
	q := &querySolver{slack: slack, probe: probe}
	ch.compile(q)
	return q
}

// compile replaces q's solver with a fresh compilation of tnfMain plus a
// replay of the op log.  Learned clauses are dropped.
func (ch *checker) compile(q *querySolver) {
	q.Solver = icp.New(ch.tnfMain, ch.opts.Solver)
	q.acts, q.applied, q.retired = q.acts[:0], 0, 0
	ch.catchUp(q)
}

// catchUp replays the ops q has not seen yet: every op on main, only the
// unguarded (F_∞) ones on the probe solver.
func (ch *checker) catchUp(q *querySolver) {
	for _, op := range ch.ops[q.applied:] {
		switch {
		case op.newFrame:
			if !q.probe {
				q.acts = append(q.acts, q.AddBoolVar(".frame"+strconv.Itoa(len(q.acts))))
			}
		case op.level < 0:
			q.AddClause(op.body)
		case !q.probe:
			cl := make(tnf.Clause, 0, len(op.body)+1)
			cl = append(cl, tnf.MkLe(q.acts[op.level], 0))
			cl = append(cl, op.body...)
			q.AddClause(cl)
		}
	}
	q.applied = len(ch.ops)
}

// actLits returns activation assumptions for F_i (levels >= i).
func (q *querySolver) actLits(i int) []tnf.Lit {
	lits := make([]tnf.Lit, 0, len(q.acts)-i)
	for j := i; j < len(q.acts); j++ {
		lits = append(lits, tnf.MkGe(q.acts[j], 1))
	}
	return lits
}

// appendOp records a durable op and applies it to main at once.
func (ch *checker) appendOp(op durableOp) {
	ch.ops = append(ch.ops, op)
	ch.catchUp(ch.main)
}

// oneShot asks SAT(F_level ∧ ¬c ∧ T ∧ c') on q, the one query shape of
// both query solvers (the probe solver has no frame levels: pass 0 and
// the query is ¬c ∧ T ∧ c' under the F_∞ clauses alone).  ¬c goes in
// under a one-shot .tmp activation variable that is retired after the
// solve; a solver that has retired its slack is rebuilt first (its
// counters are absorbed and a main rebuild counted, so CheckFull
// reports totals across rebuilds).  A non-nil accept may end a
// satisfiable query early (icp.Solver.SolveAccept).  The primed cube
// literals are returned for core extraction: a scratch buffer, valid
// until the next primed call.
func (ch *checker) oneShot(q *querySolver, level int, c icpCube, accept func(lo, hi []float64) bool) (icp.Result, []tnf.Lit) {
	if q.retired >= q.slack {
		q.absorb()
		if !q.probe {
			ch.stats["solverRebuilds"]++
		}
		ch.compile(q)
	}
	ch.catchUp(q)
	tmp := q.AddBoolVar(".tmp" + strconv.Itoa(q.retired))
	q.AddClause(append(tnf.Clause{tnf.MkLe(tmp, 0)}, ch.negCube(c)...))
	primed := ch.primed(c)
	r := q.SolveAccept(append(append(q.actLits(level), ch.runLit, tnf.MkGe(tmp, 1)), primed...), accept)
	q.AddClause(tnf.Clause{tnf.MkLe(tmp, 0)}) // retire
	q.retired++
	return r, primed
}

// absorb folds the counters of q's current solver into q.total.  It
// runs once per solver: just before a rebuild discards it, and at the
// end of the run.
func (q *querySolver) absorb() { q.total.Add(&q.Stats) }

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
