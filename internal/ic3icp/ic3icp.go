// Package ic3icp implements the paper's contribution: IC3/PDR with
// interval constraint propagation as the underlying solver, for safety
// verification of transition systems with non-linear arithmetic.
//
// Differences from Boolean IC3 (package ic3bool):
//
//   - Cubes are interval boxes: conjunctions of bound literals
//     (x >= lo, x <= hi) over the state variables.
//   - A SAT answer of the CDCL(ICP) solver returns a whole box of
//     predecessor states — a generalization for free compared to the
//     single model of a SAT solver.
//   - UNSAT answers come with assumption cores over the primed cube
//     literals, enabling literal-drop generalization; bounds surviving the
//     core can additionally be widened outward while the blocking query
//     stays UNSAT ("stronger generalization", the ablation of Table III).
//   - Init is a region, not a point: intersection checks are themselves
//     ICP queries (UNSAT is sound; candidate answers route to
//     counterexample validation).
//   - Counterexample traces are ε-candidate chains and are validated by
//     concrete replay before Unsafe is reported; a failed validation makes
//     the engine answer Unknown, never a wrong verdict.
package ic3icp

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"icpic3/internal/engine"
	"icpic3/internal/expr"
	"icpic3/internal/icp"
	"icpic3/internal/interval"
	"icpic3/internal/tnf"
	"icpic3/internal/ts"
)

// GenMode selects the generalization strategy for blocked cubes.
type GenMode int

const (
	// GenCoreWiden, the default, drops literals absent from the UNSAT
	// core and widens the surviving bounds outward while the blocking
	// query remains UNSAT.
	GenCoreWiden GenMode = iota
	// GenCore only drops literals absent from the UNSAT core.
	GenCore
	// GenNone blocks the full cube unchanged (ablation baseline).
	GenNone
)

func (g GenMode) String() string {
	switch g {
	case GenNone:
		return "none"
	case GenCore:
		return "core"
	case GenCoreWiden:
		return "core+widen"
	}
	return "?"
}

// Options configures an IC3-ICP run.
type Options struct {
	// MaxFrames bounds the number of frames (0 = 200).
	MaxFrames int
	// Solver configures the underlying CDCL(ICP) solver (Eps default
	// engine.DefaultEps).
	Solver icp.Options
	// Generalize selects the generalization strategy (zero value
	// GenCoreWiden).
	Generalize GenMode
	// SeedClauses are the cubes of a prior proof's box-invariant
	// certificate (typically of a near-identical system, see
	// internal/reuse).  Each cube is re-checked against this system's
	// Init/Trans with fresh solvers before its negation is installed at
	// F_1; clauses that are no longer inductive are dropped, so a stale
	// or corrupted seed can slow a run but never change its verdict.
	SeedClauses []engine.Cube
	// Budget bounds the run.
	Budget engine.Budget
}

func (o Options) withDefaults() Options {
	if o.MaxFrames <= 0 {
		o.MaxFrames = 200
	}
	if o.Solver.Eps <= 0 {
		o.Solver.Eps = engine.DefaultEps
	}
	return o
}

const (
	// widenRounds is the number of doubling and of bisection steps when
	// widening a bound outward.
	widenRounds = 8
	// maxObligations bounds the total proof obligations of a run.
	maxObligations = 200_000
)

// checker is the per-run state.
type checker struct {
	sys  *ts.System
	opts Options
	tol  float64 // counterexample validation tolerance, ts.ValidateTol(Eps)

	// steps 0 (current) and 1 (next), Trans asserted; both query
	// solvers are compiled from tnfMain (see trigger.go).  Every solver
	// of the run declares step 0 first, so a state variable has the same
	// id, its position in sys.Vars, in all of them (ts.DeclareStep), and
	// a cube passes from one solver to another unmapped.
	tnfMain   *tnf.System
	curIDs    []tnf.VarID // state var ids at step 0: 0..n-1
	nextIDs   []tnf.VarID // state var ids at step 1
	badLit    tnf.Lit     // !Prop over step-0 vars
	badRobust tnf.Lit     // robust violation: !Weaken(Prop) over step-0 vars
	runLit    tnf.Lit     // guards the transition relation

	// init solver: step 0 only, Init asserted
	tnfInit *tnf.System
	init    *icp.Solver

	// prop solvers: step 0 only, used for widening bad boxes.
	// prop asserts the δ-weakened property (box ∧ it UNSAT ⟺ box is
	// robustly bad); propPlain asserts the exact property (⟺ box is bad).
	prop      *icp.Solver
	propPlain *icp.Solver

	frames [][]*frameCube // per-level blocked cubes with push-trigger state
	budget engine.Budget
	stats  map[string]int64

	// durable-op log and the two query solvers (see trigger.go): ops
	// replays frame content onto any solver compiled from tnfMain; main
	// answers blocking, pushing and bad-state queries, inf the F_∞
	// probes (built on the first probe).
	ops         []durableOp
	main, inf   *querySolver
	pushStalled bool // last push sweep pushed nothing while skips were in effect

	// coreHits counts how often each (variable, direction) bound was
	// retained by an UNSAT core, steering generalization to drop or
	// widen rarely-essential literals first.  Lookup-only iteration.
	coreHits map[coreKey]int64

	// memo caches UNSAT consecution answers keyed by canonical cube and
	// target frame (memo.go), consulted by blockQuery and pushFrames
	// before they ask the solver.  build() allocates it.
	memo *consecMemo

	// scratch buffers for the primed literal mapping and the widening
	// candidate cube.
	primedScratch []tnf.Lit
	widenScratch  icpCube

	// counterexample-to-generalization machinery
	ctgBudget   int     // remaining recursive CTG blocks for this obligation
	lastWitness icpCube // predecessor box of the last failed block query
	lastNext    icpCube // successor box of the same query (cur-var terms)
	infWitness  icpCube // obstruction box of the last failed F_∞ probe
	infCTGDepth int     // recursion guard for down-generalized promotion

	// F_∞: unguarded clauses from self-inductive blocked cubes
	infCubes    []icpCube
	provedByInf bool

	// exact-witness exit of the F_∞ probes (witness.go): the successor
	// enclosure (nil when Trans is not a function of the state), the
	// step-0 formulas compiled into tnfMain that may be undefined at a
	// point, and scratch for the candidate point and its successor
	stepper    *ts.Stepper
	partial    []*expr.Expr
	probePoint []float64
	probeSucc  []interval.Interval
	probeEnv   expr.IEnv
	// onProbe, when set, observes every F_∞ probe once it is answered
	// (tests compare the answers against probes without the exit)
	onProbe func(c icpCube, needBox bool, r icp.Result, accepted bool)

	sim *ts.Simulator // exact point replay for counterexample repair
}

// icpCube is a cube in solver terms: literals over curIDs, so a
// literal's Var is also the position of its variable in sys.Vars.
type icpCube []tnf.Lit

// coreKey identifies one side of one state variable for the UNSAT-core
// hit statistics guiding generalization order.
type coreKey struct {
	v tnf.VarID
	d tnf.Dir
}

// obligation is a pending blocking task.
type obligation struct {
	cube  icpCube
	point ts.State // midpoint state used for trace reconstruction
	frame int
	depth int
	succ  *obligation
}

type obQueue []*obligation

func (q obQueue) Len() int { return len(q) }
func (q obQueue) Less(i, j int) bool {
	if q[i].frame != q[j].frame {
		return q[i].frame < q[j].frame
	}
	return q[i].depth > q[j].depth
}
func (q obQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *obQueue) Push(x interface{}) { *q = append(*q, x.(*obligation)) }
func (q *obQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// Check model-checks AG Prop on the system.  A Safe result carries the
// inductive invariant as its box-invariant Certificate.
func Check(sys *ts.System, opts Options) engine.Result {
	res, _ := checkWith(sys, opts, nil)
	return res
}

// checkWith is Check with a setup hook run on the built checker before
// the search starts; it also returns the finished checker (nil if the
// system did not validate), whose query solvers hold the run's solver
// totals.
func checkWith(sys *ts.System, opts Options, setup func(*checker)) (engine.Result, *checker) {
	opts = opts.withDefaults()
	budget := opts.Budget.Start()
	if err := sys.Validate(); err != nil {
		return engine.Result{Verdict: engine.Unknown, Note: err.Error()}, nil
	}
	opts.Solver.Stop = budget.Expired

	ch := &checker{sys: sys, opts: opts, tol: ts.ValidateTol(opts.Solver.Eps), budget: budget,
		stats: map[string]int64{}, coreHits: map[coreKey]int64{}}
	// every reported work counter (engine.Counters) is present in the
	// stats even when zero
	for _, c := range engine.Counters {
		ch.stats[c.Key] = 0
	}
	if err := ch.build(); err != nil {
		return engine.Result{Verdict: engine.Unknown, Note: err.Error()}, ch
	}
	if setup != nil {
		setup(ch)
	}
	res := ch.run()
	res.Runtime = budget.Elapsed()
	// surface the query solvers' hot-path counters next to the IC3 ones
	// (each solver's total carries what its earlier rebuilds absorbed)
	ch.main.absorb()
	m := &ch.main.total
	ch.stats["watchVisits"] = m.WatchVisits
	ch.stats["clausesDeleted"] = m.ClausesDeleted
	ch.stats["litsMinimized"] = m.LitsMinimized
	ch.stats["prefixKeptLevels"] = m.PrefixKeptLevels
	ch.stats["trailEventsSaved"] = m.TrailEventsSaved
	ch.stats["revisions"] = m.Revisions
	if ch.inf != nil {
		ch.inf.absorb()
		ch.stats["infRevisions"] = ch.inf.total.Revisions
		ch.stats["infDecisions"] = ch.inf.total.Decisions
	}
	res.Stats = ch.stats
	return res, ch
}

// build compiles tnfMain with its main query solver and the three step-0
// side solvers.
func (ch *checker) build() error {
	sys := ch.sys
	ch.memo = newConsecMemo()

	ch.tnfMain = tnf.NewSystem()
	cur, err := sys.DeclareStep(ch.tnfMain, 0)
	if err != nil {
		return err
	}
	next, err := sys.DeclareStep(ch.tnfMain, 1)
	if err != nil {
		return err
	}
	ch.curIDs, ch.nextIDs = cur, next
	// The transition relation is guarded by a run literal: blocking and
	// propagation queries assume it, while bad-state queries leave it free
	// so that property-violating states without successors (possible when
	// variable ranges truncate the dynamics) are still found.
	runID, err := ch.tnfMain.AddBool(".run")
	if err != nil {
		return err
	}
	ch.runLit = tnf.MkGe(runID, 1)
	transLit, err := ch.tnfMain.CompileBool(ts.AtStep(sys.Trans, 0))
	if err != nil {
		return err
	}
	ch.tnfMain.AddClause(tnf.Clause{tnf.MkLe(runID, 0), transLit})
	bad, err := ch.tnfMain.CompileBool(expr.Not(ts.AtStep(sys.Prop, 0)))
	if err != nil {
		return err
	}
	ch.badLit = bad
	badR, err := ch.tnfMain.CompileBool(expr.Not(expr.Weaken(ts.AtStep(sys.Prop, 0), 2*ch.tol)))
	if err != nil {
		return err
	}
	ch.badRobust = badR
	// Compile-time TNF preprocessing (tnf.Simplify): every solver built
	// from these systems — main, the F_∞ probe solver, their rebuilds —
	// replays the smaller form.  Must run before the first icp.New on
	// each system (solvers sync by position counts).
	ch.stats["tnfOpsPruned"] += int64(ch.tnfMain.Simplify().Pruned())
	ch.main = ch.newQuerySolver(mainRebuildSlack, false)

	if ch.tnfInit, ch.init, err = ch.stepZero(ts.AtStep(sys.Init, 0)); err != nil {
		return err
	}
	// The prop solver asserts the δ-weakened property: a box is disjoint
	// from it exactly when every state in the box violates Prop robustly
	// (by margin δ), so widened bad cubes only contain validatable
	// violations.  δ matches the robust bad-state query margin.
	weak := expr.Simplify(expr.Weaken(ts.AtStep(sys.Prop, 0), 2*ch.tol))
	if _, ch.prop, err = ch.stepZero(weak); err != nil {
		return err
	}
	if _, ch.propPlain, err = ch.stepZero(ts.AtStep(sys.Prop, 0)); err != nil {
		return err
	}
	ch.buildWitness()
	return nil
}

// stepZero compiles a side system over the step-0 state variables alone
// with f asserted, and a solver over it.  The system declares step 0
// first, as tnfMain does, so cube literals pass to the solver unmapped.
func (ch *checker) stepZero(f *expr.Expr) (*tnf.System, *icp.Solver, error) {
	t := tnf.NewSystem()
	if _, err := ch.sys.DeclareStep(t, 0); err != nil {
		return nil, nil, err
	}
	if err := t.Assert(f); err != nil {
		return nil, nil, err
	}
	ch.stats["tnfOpsPruned"] += int64(t.Simplify().Pruned())
	return t, icp.New(t, ch.opts.Solver), nil
}

// onStep rewrites cube literals, which are over the step-0 ids, onto the
// ids of another step of the same layout, appending to dst.
func onStep(dst []tnf.Lit, c icpCube, ids []tnf.VarID) []tnf.Lit {
	for _, l := range c {
		l.Var = ids[l.Var]
		dst = append(dst, l)
	}
	return dst
}

// entirelyBad reports whether the box is provably contained in the
// robust-violation region (¬Weaken(Prop, δ)).
func (ch *checker) entirelyBad(c icpCube) bool {
	if len(c) == 0 {
		return false
	}
	ch.stats["propQueries"]++
	ch.budget.Tick()
	r := ch.prop.Solve(c)
	return r.Status == icp.StatusUnsat
}

// entirelyBadPlain reports whether the box is provably contained in ¬Prop.
func (ch *checker) entirelyBadPlain(c icpCube) bool {
	if len(c) == 0 {
		return false
	}
	ch.stats["propQueries"]++
	ch.budget.Tick()
	r := ch.propPlain.Solve(c)
	return r.Status == icp.StatusUnsat
}

// widenBadCube expands a bad ε-box to a (locally) maximal box inside the
// bad region, so one obligation covers the whole region instead of an
// ε-sliver enumeration.  Robustly-bad boxes widen within the robust
// region (their obligation chains yield validatable counterexamples);
// boundary boxes — violations by less than the validation margin — widen
// within the plain region so the boundary shell is blocked wholesale.
func (ch *checker) widenBadCube(c icpCube) icpCube {
	if ch.entirelyBad(c) {
		return ch.widenCubeWith(c, ch.entirelyBad)
	}
	if ch.entirelyBadPlain(c) {
		return ch.widenCubeWith(c, ch.entirelyBadPlain)
	}
	return c
}

// widenCubeWith expands a cube to a (locally) maximal cube still
// satisfying the given monotone predicate: per literal it tries dropping,
// then a doubling advance, then bisection with a final strict-bound snap.
// Candidate cubes are built in a pooled scratch buffer; a fresh cube is
// materialized only when a widening step actually succeeds.
func (ch *checker) widenCubeWith(c icpCube, test func(icpCube) bool) icpCube {
	rounds := widenRounds
	for i := 0; i < len(c); i++ {
		// try dropping the literal
		if len(c) > 1 {
			cand := append(ch.widenScratch[:0], c[:i]...)
			cand = append(cand, c[i+1:]...)
			ch.widenScratch = cand
			if test(cand) {
				c = append(icpCube(nil), cand...)
				i--
				continue
			}
		}
		l := c[i]
		dom := ch.sys.Vars[l.Var].Dom
		limit := dom.Hi
		if l.Dir == tnf.DirGe {
			limit = dom.Lo
		}
		if l.B == limit || math.IsInf(limit, 0) {
			continue
		}
		cand := append(ch.widenScratch[:0], c...)
		ch.widenScratch = cand
		try := func(b float64, strict bool) bool {
			cand[i] = tnf.Lit{Var: l.Var, Dir: l.Dir, B: b, Strict: strict}
			return test(cand)
		}
		good, goodStrict := l.B, l.Strict
		bad := math.NaN()
		dir := 1.0
		if limit < good {
			dir = -1
		}
		span := math.Abs(limit - good)
		step := math.Max(span/math.Pow(4, float64(rounds-1)),
			math.Max(ch.opts.Solver.Eps, math.Abs(good)*1e-12))
		for r := 0; r < rounds; r++ {
			cand := good + dir*step
			if (dir > 0 && cand >= limit) || (dir < 0 && cand <= limit) {
				cand = limit
			}
			if cand == good {
				break
			}
			if try(cand, false) {
				good, goodStrict = cand, false
				if cand == limit {
					break
				}
				step *= 4
			} else {
				bad = cand
				break
			}
		}
		if !math.IsNaN(bad) {
			for r := 0; r < rounds; r++ {
				mid := good + (bad-good)/2
				if mid == good || mid == bad || math.IsNaN(mid) {
					break
				}
				if try(mid, false) {
					good, goodStrict = mid, false
				} else {
					bad = mid
				}
			}
			if try(bad, true) {
				good, goodStrict = bad, true
			}
		}
		if good != l.B || goodStrict != l.Strict {
			c = append(icpCube{}, c...)
			c[i] = tnf.Lit{Var: l.Var, Dir: l.Dir, B: good, Strict: goodStrict}
		}
	}
	return c
}

// selfInductive reports whether the cube's complement is closed under the
// transition relation on its own: ¬c ∧ T ∧ c' is UNSAT without any frame
// clauses.  Such a cube can be excluded permanently (the F_∞ frame of
// classical PDR implementations).  needBox says whether the caller reads
// the obstruction box (infWitness) of a failed probe; a probe that does
// not may end at the first exact counter-point (witness.go), which
// changes the box it finds, never its answer.
func (ch *checker) selfInductive(c icpCube, needBox bool) bool {
	if len(c) == 0 {
		return false
	}
	ch.stats["infQueries"]++
	if ch.inf == nil {
		ch.inf = ch.newQuerySolver(probeRebuildSlack, true)
	}
	var accept func(lo, hi []float64) bool
	accepted := false
	if !needBox && ch.stepper != nil {
		accept = func(lo, hi []float64) bool {
			accepted = ch.steppedInto(c, lo, hi)
			return accepted
		}
	}
	r, _ := ch.oneShot(ch.inf, 0, c, accept)
	if accepted {
		ch.stats["infAccepted"]++
	}
	if r.Status == icp.StatusSat && needBox {
		// the obstruction: a box outside c with a successor inside c
		ch.infWitness = ch.boxCube(r.Box, ch.curIDs)
	}
	if ch.onProbe != nil {
		ch.onProbe(c, needBox, r, accepted)
	}
	return r.Status == icp.StatusUnsat
}

// inductiveAndSeparate is the widening predicate for F_∞ promotion.  It
// clears infWitness first, so a probe that never runs (c meets Init)
// leaves no earlier probe's box behind.
func (ch *checker) inductiveAndSeparate(c icpCube, needBox bool) bool {
	ch.infWitness = nil
	if intersects, _ := ch.initIntersects(c); intersects {
		return false
	}
	return ch.selfInductive(c, needBox)
}

// inductiveAndSeparateCTG is inductiveAndSeparate with down-
// generalization: when the probe fails because a box u outside c
// transitions into c, u itself may be promotable — if it is, the
// obstruction disappears permanently and the probe is re-asked.
// Recursion is bounded to one level and charged to the per-obligation
// CTG budget.  Only the first probe reads its box, and only when the
// CTG budget and depth let it recurse.
func (ch *checker) inductiveAndSeparateCTG(c icpCube) bool {
	recurse := ch.ctgBudget > 0 && ch.infCTGDepth < 1
	if ch.inductiveAndSeparate(c, recurse) {
		return true
	}
	w := ch.infWitness
	if w == nil || !recurse || ch.budget.Expired() {
		return false
	}
	ch.ctgBudget--
	ch.infCTGDepth++
	// the recursive promotion runs its own widenCubeWith, which would
	// reuse — and corrupt — the caller's pooled candidate buffer that c
	// aliases; give the recursion a fresh buffer and restore ours after
	saved := ch.widenScratch
	ch.widenScratch = nil
	promoted := ch.promoteInductive(w)
	ch.widenScratch = saved
	ch.infCTGDepth--
	if !promoted {
		return false
	}
	ch.stats["ctgPromoted"]++
	return ch.inductiveAndSeparate(c, false)
}

// promoteInductive checks whether cube c is self-inductive and disjoint
// from Init; if so it widens it within that predicate, installs the
// negation as an unguarded (F_∞) clause, and returns true.
func (ch *checker) promoteInductive(c icpCube) bool {
	if !ch.inductiveAndSeparate(c, false) {
		return false
	}
	g := c
	if ch.opts.Generalize == GenCoreWiden {
		// widening the inductive cube is part of the "stronger
		// generalization" strategy (the Table III ablation axis); the
		// CTG variant of the predicate can promote obstruction boxes
		// along the way (down-generalization)
		g = ch.widenCubeWith(c, ch.inductiveAndSeparateCTG)
	}
	ch.addInfCube(g)
	// an F_∞ cube is active everywhere: retire every frame cube it covers
	// and re-arm any push attempt it might unblock
	ch.subsumeFrames(g, -1)
	ch.markTriggered(g, 1, -1)
	ch.stats["infCubes"]++
	return true
}

// addInfCube installs ¬g as an unguarded (F_∞) clause: an op on the
// durable log, and a cube in infCubes, which the probes' exact-witness
// exit reads as the unguarded clauses the probe solver holds.
func (ch *checker) addInfCube(g icpCube) {
	ch.infCubes = append(ch.infCubes, g)
	ch.appendOp(durableOp{level: -1, body: ch.negCube(g)})
}

// globallySafe reports whether the F_∞ clauses alone already exclude every
// property violation: then Prop ∧ the F_∞ clauses form a safe inductive
// invariant and the run can stop.
func (ch *checker) globallySafe() bool {
	if len(ch.infCubes) == 0 {
		return false
	}
	ch.stats["globalSafeChecks"]++
	r := ch.main.Solve([]tnf.Lit{ch.badLit})
	return r.Status == icp.StatusUnsat
}

// newFrame appends a frame level with a fresh activation variable (a
// durable op, so a rebuilt main solver re-creates it on replay).
func (ch *checker) newFrame() {
	ch.appendOp(durableOp{newFrame: true})
	ch.frames = append(ch.frames, nil)
}

// boxCube extracts the state cube from a solution box, trimming bounds
// that coincide with the variable's declared range (no information).
func (ch *checker) boxCube(box []interval.Interval, ids []tnf.VarID) icpCube {
	var cube icpCube
	for i, v := range ch.sys.Vars {
		b := box[ids[i]]
		// express over the *current*-state ids regardless of which ids the
		// box was read from
		cid := ch.curIDs[i]
		if b.Lo > v.Dom.Lo {
			cube = append(cube, tnf.MkGe(cid, b.Lo))
		}
		if b.Hi < v.Dom.Hi {
			cube = append(cube, tnf.MkLe(cid, b.Hi))
		}
	}
	return cube
}

// primed maps cube literals onto the next-state variables.  The returned
// slice is a scratch buffer valid until the next primed call.
func (ch *checker) primed(c icpCube) []tnf.Lit {
	ch.primedScratch = onStep(ch.primedScratch[:0], c, ch.nextIDs)
	//lint:allow scratchalias documented loan: consumed by Solve before the next primed call
	return ch.primedScratch
}

// negCube returns the clause ¬cube over the main solver's current vars
// (relaxed negation; sound).
func (ch *checker) negCube(c icpCube) tnf.Clause {
	cl := make(tnf.Clause, len(c))
	for i, l := range c {
		cl[i] = ch.tnfMain.NegLit(l)
	}
	return cl
}

// initIntersects asks whether cube ∩ Init is (candidate-)satisfiable.
// The bool result is true for "may intersect" (SAT or Unknown: sound side)
// and false only when proven disjoint.
func (ch *checker) initIntersects(c icpCube) (bool, *icp.Result) {
	ch.stats["initQueries"]++
	ch.budget.Tick()
	r := ch.init.Solve(c)
	if r.Status == icp.StatusUnsat {
		return false, &r
	}
	return true, &r
}

// blockQuery asks the consecution query for a blocking attempt.  On
// UNSAT it returns the subset of cube literals in the assumption core,
// counts them in coreHits and stores them in the consecution memo.
func (ch *checker) blockQuery(c icpCube, frame int) (icp.Result, icpCube) {
	ch.budget.Tick()
	// consecution memo: a cached UNSAT for this (cube, frame) at an
	// earlier op-log generation still holds (frames only strengthen),
	// so replay the stored core into generalization — including the
	// coreHits bumps, keeping the ordering heuristic on the same
	// trajectory whether an answer was memo-served or solver-served —
	// without spending a solver query or a one-shot activation var.
	if core, ok := ch.memoLookup(c, frame); ok {
		coreCube := append(icpCube(nil), core...)
		for _, l := range coreCube {
			ch.coreHits[coreKey{l.Var, l.Dir}]++
		}
		return icp.Result{Status: icp.StatusUnsat}, coreCube
	}
	r, coreCube := ch.consecution(c, frame)
	if r.Status == icp.StatusUnsat {
		for _, l := range coreCube {
			ch.coreHits[coreKey{l.Var, l.Dir}]++
		}
		ch.memoStore(c, frame, coreCube)
	}
	return r, coreCube
}

// consecution asks SAT(F_{frame-1} ∧ ¬cube ∧ T ∧ cube') on the main
// solver, the one query shape blocking and pushing share.  On UNSAT it
// returns the subset of cube literals in the assumption core.
func (ch *checker) consecution(c icpCube, frame int) (icp.Result, icpCube) {
	ch.stats["queries"]++
	r, primed := ch.oneShot(ch.main, frame-1, c, nil)
	var coreCube icpCube
	if r.Status == icp.StatusUnsat {
		inCore := make(map[tnf.Lit]bool, len(r.Core))
		for _, l := range r.Core {
			inCore[l] = true
		}
		for i, pl := range primed {
			if inCore[pl] {
				coreCube = append(coreCube, c[i])
			}
		}
	}
	return r, coreCube
}

// addBlockedCube installs ¬cube at the given frame level: an op on the
// durable log, applied eagerly to main.  A fresh clause at level L
// strengthens every F_i with i <= L, so dormant push attempts of all
// those frames are re-armed when the clause might refute their witness.
func (ch *checker) addBlockedCube(c icpCube, level int) {
	ch.stats["blockedCubes"]++
	// the new cube dominates anything it subsumes at its own level or
	// below (its clause is active wherever theirs are)
	ch.subsumeFrames(c, level)
	ch.frames[level] = append(ch.frames[level], &frameCube{cube: c, pending: true})
	ch.appendOp(durableOp{level: level, body: ch.negCube(c)})
	ch.markTriggered(c, 1, level)
}

// exportCube renders an icpCube with variable names.
func (ch *checker) exportCube(c icpCube) engine.Cube {
	out := make(engine.Cube, len(c))
	for i, l := range c {
		out[i] = engine.CertBound{Var: ch.sys.Vars[l.Var].Name, Le: l.Dir == tnf.DirLe, B: l.B, Strict: l.Strict}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Var != out[j].Var {
			return out[i].Var < out[j].Var
		}
		return out[i].Le && !out[j].Le
	})
	return out
}

// safe is the Safe result at frame k.  Its certificate holds the cubes
// blocked in frames, then the F_∞ cubes: their unguarded clauses take
// part in every query, so they are conjuncts of the invariant too, and
// without them the exported clause set need not be inductive on its own.
func (ch *checker) safe(k int, frames [][]*frameCube) engine.Result {
	cert := &engine.Certificate{Kind: engine.CertBoxInvariant}
	for _, frame := range frames {
		for _, fc := range frame {
			cert.Cubes = append(cert.Cubes, ch.exportCube(fc.cube))
		}
	}
	for _, c := range ch.infCubes {
		cert.Cubes = append(cert.Cubes, ch.exportCube(c))
	}
	return engine.Result{Verdict: engine.Safe, Depth: k, Certificate: cert}
}

// run executes the main IC3 loop.
func (ch *checker) run() engine.Result {
	// Compile the remaining tnf-level content FIRST and sync it, so that
	// tnf variable ids and solver variable ids stay aligned; from here on
	// new variables enter only through Solver.AddBoolVar (activation and
	// one-shot query variables), which the tnf systems never see.
	initLit, err := ch.tnfMain.CompileBool(ts.AtStep(ch.sys.Init, 0))
	if err != nil {
		return engine.Result{Verdict: engine.Unknown, Note: err.Error()}
	}
	ch.main.Sync(ch.tnfMain)
	badInit, err := ch.tnfInit.CompileBool(expr.Not(ts.AtStep(ch.sys.Prop, 0)))
	if err != nil {
		return engine.Result{Verdict: engine.Unknown, Note: err.Error()}
	}
	ch.init.Sync(ch.tnfInit)

	// 0-step: Init ∧ !Prop
	ch.stats["initQueries"]++
	r0 := ch.init.Solve([]tnf.Lit{badInit})
	if r0.Status == icp.StatusSat {
		trace := []ts.State{ch.sys.BoxState(r0.Box, ch.curIDs, interval.Interval.Mid)}
		if verr := ch.sys.ValidateTrace(trace, ch.tol); verr == nil {
			return engine.Result{Verdict: engine.Unsafe, Trace: trace, Depth: 0}
		}
		return engine.Result{Verdict: engine.Unknown, Note: "0-step candidate failed validation"}
	}
	if r0.Status == icp.StatusUnknown {
		return engine.Result{Verdict: engine.Unknown, Note: "solver budget (0-step)"}
	}

	// Frame 0 = Init: the main solver encodes F_0 by asserting Init over
	// the step-0 variables guarded by act_0.
	ch.newFrame() // level 0
	ch.appendOp(durableOp{level: 0, body: tnf.Clause{initLit}})
	ch.newFrame() // level 1

	// Certificate reuse: install still-inductive prior-proof clauses at
	// F_1 before the search starts (see seed.go for the soundness
	// argument; a failed re-check only drops clauses).
	if err := ch.seedFrames(); err != nil {
		return engine.Result{Verdict: engine.Unknown, Note: "seed: " + err.Error()}
	}

	k := 1
	defer func() { ch.stats["frames"] = int64(k) }()
	for k < ch.opts.MaxFrames {
		if ch.budget.Expired() {
			return engine.Result{Verdict: engine.Unknown, Depth: k, Note: "timeout"}
		}
		// block all bad states in F_k.  Robustly violating states are
		// searched first (boundary-only violations cannot be validated as
		// counterexamples); the plain query provides the sound UNSAT side.
		for {
			ch.stats["queries"]++
			ch.budget.Tick()
			r := ch.main.Solve(append(ch.main.actLits(k), ch.badRobust))
			if r.Status == icp.StatusUnsat {
				ch.stats["queries"]++
				ch.budget.Tick()
				r = ch.main.Solve(append(ch.main.actLits(k), ch.badLit))
			}
			if r.Status == icp.StatusUnsat {
				break
			}
			if r.Status == icp.StatusUnknown {
				return engine.Result{Verdict: engine.Unknown, Depth: k, Note: "solver budget (bad query)"}
			}
			bad := ch.widenBadCube(ch.boxCube(r.Box, ch.curIDs))
			root := &obligation{cube: bad, point: ch.sys.BoxState(r.Box, ch.curIDs, interval.Interval.Mid), frame: k, depth: 0}
			verdict, res := ch.block(root, k)
			if verdict != engine.Safe { // Unsafe or Unknown bubble up
				if verdict == engine.Unknown {
					res.Depth = k
				}
				return res
			}
			if ch.provedByInf {
				// the F_∞ clauses alone exclude all violations: Prop plus
				// their conjunction is a safe inductive invariant
				return ch.safe(k, nil)
			}
		}

		// propagate clauses forward: one consecution query per pending
		// clause, merged at a per-frame barrier in clause order (push.go).
		ch.newFrame()
		if i, fixed := ch.pushFrames(k); fixed {
			// F_i == F_{i+1}: inductive invariant
			return ch.safe(k, ch.frames[i+1:])
		}
		k++
	}
	return engine.Result{Verdict: engine.Unknown, Depth: k, Note: "frame budget"}
}

// block discharges the root obligation.  It returns Safe when all
// obligations were blocked, Unsafe with a validated trace, or Unknown.
func (ch *checker) block(root *obligation, k int) (engine.Verdict, engine.Result) {
	var q obQueue
	heap.Init(&q)
	heap.Push(&q, root)

	for q.Len() > 0 {
		if ch.budget.Expired() {
			return engine.Unknown, engine.Result{Verdict: engine.Unknown, Note: "timeout"}
		}
		ob := heap.Pop(&q).(*obligation)
		ch.stats["obligations"]++
		ch.budget.Tick()
		if ch.stats["obligations"] > maxObligations {
			return engine.Unknown, engine.Result{Verdict: engine.Unknown, Note: "obligation budget"}
		}

		// counterexample checks: frame 0 or cube touching Init
		if ob.frame == 0 {
			return ch.candidateCex(ob)
		}
		if intersects, _ := ch.initIntersects(ob.cube); intersects {
			return ch.candidateCex(ob)
		}

		r, coreCube := ch.blockQuery(ob.cube, ob.frame)
		switch r.Status {
		case icp.StatusSat:
			pred := ch.boxCube(r.Box, ch.curIDs)
			heap.Push(&q, &obligation{
				cube: pred, point: ch.sys.BoxState(r.Box, ch.curIDs, interval.Interval.Mid),
				frame: ob.frame - 1, depth: ob.depth + 1, succ: ob,
			})
			heap.Push(&q, ob)
		case icp.StatusUnknown:
			return engine.Unknown, engine.Result{Verdict: engine.Unknown, Note: "solver budget (block query)"}
		case icp.StatusUnsat:
			ch.ctgBudget = 16 // per-obligation allowance for CTG blocking
			if ch.promoteInductive(ob.cube) {
				// the cube's region is excluded forever; no frame-local
				// bookkeeping or re-push needed
				if ch.globallySafe() {
					ch.provedByInf = true
					return engine.Safe, engine.Result{}
				}
				continue
			}
			g := ch.generalize(ob.cube, coreCube, ob.frame)
			ch.addBlockedCube(g, ob.frame)
			if ob.frame < len(ch.frames)-1 {
				ob.frame++
				heap.Push(&q, ob)
			}
		}
	}
	return engine.Safe, engine.Result{}
}

// candidateCex validates the obligation chain as a concrete trace,
// attempting an exact forward repair when the raw midpoint chain drifts.
func (ch *checker) candidateCex(ob *obligation) (engine.Verdict, engine.Result) {
	var trace []ts.State
	for o := ob; o != nil; o = o.succ {
		trace = append(trace, o.point)
	}
	// If the first state does not hit Init exactly (it is a box midpoint),
	// try substituting a point from the init region query; corner points of
	// the init box are kept as alternative starts for trace repair.
	startVariants := []ts.State{trace[0]}
	if ok, r := ch.initIntersects(ob.cube); ok && r.Status == icp.StatusSat {
		trace[0] = ch.sys.BoxState(r.Box, ch.curIDs, interval.Interval.Mid)
		startVariants = []ts.State{trace[0]}
		startVariants = append(startVariants,
			ch.sys.BoxState(r.Box, ch.curIDs, func(b interval.Interval) float64 { return b.Lo }),
			ch.sys.BoxState(r.Box, ch.curIDs, func(b interval.Interval) float64 { return b.Hi }))
	}
	if err := ch.sys.ValidateTrace(trace, ch.tol); err == nil {
		return engine.Unsafe, engine.Result{Verdict: engine.Unsafe, Trace: trace, Depth: len(trace) - 1}
	}
	for _, start := range startVariants {
		cand := append([]ts.State{start}, trace[1:]...)
		if repaired, ok := ch.repairTrace(cand); ok {
			ch.stats["repairedCex"]++
			return engine.Unsafe, engine.Result{Verdict: engine.Unsafe, Trace: repaired, Depth: len(repaired) - 1}
		}
	}
	ch.stats["spuriousCex"]++
	return engine.Unknown, engine.Result{
		Verdict: engine.Unknown,
		Note:    fmt.Sprintf("candidate counterexample of length %d failed validation (ε-spurious)", len(trace)),
	}
}

// repairTrace rebuilds the candidate trace as an exact trajectory: starting
// from the validated initial point it advances step by step with point ICP
// queries (current state fixed, successor guided toward the candidate's
// next state), then re-validates.  This recovers genuine counterexamples
// from ε-drifted obligation chains.
func (ch *checker) repairTrace(cand []ts.State) ([]ts.State, bool) {
	if len(cand) == 0 || ch.budget.Expired() {
		return nil, false
	}
	out := []ts.State{cand[0]}
	cur := cand[0]
	slack := math.Max(ch.tol*10, 1e-6)
	for i := 1; i < len(cand); i++ {
		next, ok := ch.stepFrom(cur, cand[i], slack)
		if !ok {
			// retry unguided: any successor
			next, ok = ch.stepFrom(cur, nil, 0)
			if !ok {
				return nil, false
			}
		}
		out = append(out, next)
		cur = next
	}
	if err := ch.sys.ValidateTrace(out, ch.tol); err == nil {
		return out, true
	}
	// Overshoot: the exact replay may reach the violation a few steps
	// after the (boundary-hugging) candidate length.
	for extra := 0; extra < 8; extra++ {
		next, ok := ch.stepFrom(cur, nil, 0)
		if !ok {
			return nil, false
		}
		out = append(out, next)
		cur = next
		if v, err := ch.sys.Prop.EvalApprox(cur.Env(), ch.tol); err == nil && v == 0 {
			if err := ch.sys.ValidateTrace(out, ch.tol); err == nil {
				ch.stats["overshoot"]++
				return out, true
			}
		}
	}
	return nil, false
}

// stepFrom solves Trans(cur, ·) with the current state pinned; when guide
// is non-nil the successor is constrained to lie within slack of it.
func (ch *checker) stepFrom(cur ts.State, guide ts.State, slack float64) (ts.State, bool) {
	if ch.sim == nil {
		ch.sim = ts.NewSimulator(ch.sys, math.Min(ch.opts.Solver.Eps, 1e-9))
	}
	return ch.sim.Step(cur, guide, slack)
}

// generalize shrinks/widens a blocked cube per the configured mode.
func (ch *checker) generalize(c, coreCube icpCube, frame int) icpCube {
	if ch.opts.Generalize == GenNone {
		return c
	}
	g := coreCube
	if len(g) == 0 {
		g = c
	}
	// the generalized cube must stay disjoint from Init
	if intersects, _ := ch.initIntersects(g); intersects {
		g = ch.restoreInitSeparation(c, g)
	}
	ch.stats["coreDropped"] += int64(len(c) - len(g))

	if ch.opts.Generalize != GenCoreWiden {
		return g
	}
	// UNSAT-core-guided ordering: literals whose (variable, side) is
	// rarely retained by cores are the best drop/widen candidates, so
	// they are attempted first — successful drops early make every later
	// query in this loop smaller and cheaper.  The hit table evolves
	// deterministically with the query sequence, so the ordering is
	// identical across runs.
	g = ch.orderByCoreHits(g)
	for i := 0; i < len(g); i++ {
		// try dropping the literal entirely
		if cand, ok := ch.tryDrop(g, i, frame); ok {
			g = cand
			i--
			continue
		}
		l := g[i]
		dom := ch.sys.Vars[l.Var].Dom
		var limit float64
		if l.Dir == tnf.DirLe {
			limit = dom.Hi
		} else {
			limit = dom.Lo
		}
		if l.B == limit || math.IsInf(limit, 0) {
			continue
		}
		if wl, ok := ch.widenLit(g, i, limit, frame); ok {
			g = append(icpCube{}, g...)
			g[i] = wl
			ch.stats["widened"]++
		}
	}
	return g
}

// orderByCoreHits returns g sorted so literals whose (variable, side)
// appears least often in UNSAT cores come first: they are the least
// likely to be load-bearing, so drops succeed early and every later
// generalization query runs on a smaller cube.  Ties break on stable
// variable id and direction; only map lookups, no map iteration.
func (ch *checker) orderByCoreHits(g icpCube) icpCube {
	if len(g) < 2 {
		return g
	}
	out := append(icpCube{}, g...)
	sort.SliceStable(out, func(i, j int) bool {
		hi := ch.coreHits[coreKey{out[i].Var, out[i].Dir}]
		hj := ch.coreHits[coreKey{out[j].Var, out[j].Dir}]
		if hi != hj {
			return hi < hj
		}
		if out[i].Var != out[j].Var {
			return out[i].Var < out[j].Var
		}
		return out[i].Dir < out[j].Dir
	})
	return out
}

// widenLit searches for the weakest still-blocked variant of literal i:
// first an exponential (doubling) advance from the current bound toward
// the range limit, then bisection inside the failure bracket, and finally
// a strict-bound snap exactly at the failure point — the half-open cube
// [.., bad) is often blockable even when the closed cube [.., bad] is not,
// and it eliminates the ε-sliver crawl at reachability boundaries.
//
// The bisection is witness-guided: a failed try returns a whole box of
// obstructing successor states (the ICP advantage — a SAT answer is a
// box, not a point), and any candidate bound that readmits that box
// must fail too, so the known-bad end of the bracket jumps straight to
// the box's near edge instead of creeping there by bisection.  The
// jump only tightens the heuristic bracket — widened bounds are still
// accepted solely on a proved-UNSAT query — so it can under-widen but
// never unsoundly widen.
func (ch *checker) widenLit(g icpCube, i int, limit float64, frame int) (tnf.Lit, bool) {
	l := g[i]
	tryBound := func(b float64, strict bool) bool {
		wl := tnf.Lit{Var: l.Var, Dir: l.Dir, B: b, Strict: strict}
		cand := append(icpCube{}, g...)
		cand[i] = wl
		return ch.blockedAndSeparate(cand, frame)
	}
	// witnessEdge inspects the successor box of the last failed try for
	// the near edge of the obstruction along l.Var: for an upper-bound
	// literal widening up, the box's lower bound (any candidate above it
	// readmits the box); for a lower-bound literal widening down, the
	// box's upper bound.
	witnessEdge := func(good, bad float64) (float64, bool) {
		for _, wl := range ch.lastNext {
			if wl.Var != l.Var || wl.Dir == l.Dir {
				continue
			}
			if l.Dir == tnf.DirLe && wl.B > good && wl.B < bad {
				return wl.B, true
			}
			if l.Dir == tnf.DirGe && wl.B < good && wl.B > bad {
				return wl.B, true
			}
		}
		return 0, false
	}
	good := l.B
	goodStrict := l.Strict
	bad := math.NaN() // no known failure yet
	dir := 1.0
	if limit < good {
		dir = -1
	}
	rounds := widenRounds
	// size the first step so the doubling phase can span the whole range
	// within its round budget
	span := math.Abs(limit - good)
	step := math.Max(span/math.Pow(4, float64(rounds-1)),
		math.Max(ch.opts.Solver.Eps, math.Abs(good)*1e-12))

	// doubling phase: advance geometrically from the current bound
	for r := 0; r < rounds; r++ {
		cand := good + dir*step
		if (dir > 0 && cand >= limit) || (dir < 0 && cand <= limit) {
			cand = limit
		}
		if cand == good {
			break
		}
		if tryBound(cand, false) {
			good, goodStrict = cand, false
			if cand == limit {
				break
			}
			step *= 4
		} else {
			bad = cand
			if edge, ok := witnessEdge(good, bad); ok {
				bad = edge
			}
			break
		}
	}
	// bisection phase inside (good, bad)
	if !math.IsNaN(bad) {
		for r := 0; r < rounds; r++ {
			mid := good + (bad-good)/2
			if mid == good || mid == bad || math.IsNaN(mid) {
				break
			}
			if tryBound(mid, false) {
				good, goodStrict = mid, false
			} else {
				bad = mid
				if edge, ok := witnessEdge(good, bad); ok {
					bad = edge
				}
			}
		}
		// strict snap: the half-open cube up to (but excluding) bad.
		// When the snap fails because the obstruction extends below bad,
		// chase its witness edge downward; when it fails because of an
		// unblocked predecessor at the previous frame (a counterexample
		// to generalization), try to block that predecessor and retry.
		snap := func() bool {
			for attempt := 0; attempt < 4; attempt++ {
				if tryBound(bad, true) {
					good, goodStrict = bad, true
					ch.stats["strictSnap"]++
					return true
				}
				if edge, ok := witnessEdge(good, bad); ok {
					bad = edge
					continue
				}
				w := ch.lastWitness
				if w == nil || !ch.blockCTG(w, frame-1) {
					return false
				}
			}
			return false
		}
		if !snap() {
			// full-precision refinement: converge the bracket to the exact
			// obstruction boundary, then snap once more.  This collapses
			// ε-sliver crawls at region boundaries (e.g. the edge of the
			// initial region or of the reachable frontier).  Witness jumps
			// usually land the bracket in a handful of iterations well
			// before the float-precision exit fires.
			for r := 0; r < 64; r++ {
				mid := good + (bad-good)/2
				if mid == good || mid == bad || math.IsNaN(mid) {
					break
				}
				if tryBound(mid, false) {
					good, goodStrict = mid, false
				} else {
					bad = mid
					if edge, ok := witnessEdge(good, bad); ok {
						bad = edge
					}
				}
			}
			if snap() {
				ch.stats["fineSnap"]++
			}
		}
	}
	if good == l.B && goodStrict == l.Strict {
		return l, false
	}
	return tnf.Lit{Var: l.Var, Dir: l.Dir, B: good, Strict: goodStrict}, true
}

// tryDrop removes literal i from g if the remainder stays blocked and
// disjoint from Init.  A failed drop whose witness is a counterexample
// to generalization — a box obstructing the weaker cube that may itself
// be unreachable at the previous frame — is blocked there (CTG
// down-generalization) and the drop retried once.
func (ch *checker) tryDrop(g icpCube, i, frame int) (icpCube, bool) {
	if len(g) <= 1 {
		return g, false
	}
	cand := make(icpCube, 0, len(g)-1)
	cand = append(cand, g[:i]...)
	cand = append(cand, g[i+1:]...)
	if ch.blockedAndSeparate(cand, frame) {
		ch.stats["widenDropped"]++
		return cand, true
	}
	if w := ch.lastWitness; w != nil && ch.blockCTG(w, frame-1) {
		if ch.blockedAndSeparate(cand, frame) {
			ch.stats["widenDropped"]++
			ch.stats["ctgDropAssist"]++
			return cand, true
		}
	}
	return g, false
}

// blockedAndSeparate reports whether cand is still blocked relative to
// F_{frame-1} and provably disjoint from Init.  A SAT answer records
// both the predecessor box (lastWitness, for CTG blocking) and the
// successor box in current-variable terms (lastNext, for the
// witness-guided bisection jump in widenLit).
func (ch *checker) blockedAndSeparate(cand icpCube, frame int) bool {
	ch.lastWitness, ch.lastNext = nil, nil
	if intersects, _ := ch.initIntersects(cand); intersects {
		return false
	}
	r, _ := ch.blockQuery(cand, frame)
	if r.Status == icp.StatusSat {
		ch.lastWitness = ch.boxCube(r.Box, ch.curIDs)
		ch.lastNext = ch.boxCube(r.Box, ch.nextIDs)
	}
	return r.Status == icp.StatusUnsat
}

// blockCTG attempts to block a counterexample-to-generalization cube at
// the given frame: a state that obstructs widening but may itself be
// unreachable there.  Bounded by the per-obligation CTG budget; failures
// are silently dropped (never treated as counterexamples).
func (ch *checker) blockCTG(w icpCube, frame int) bool {
	if frame < 1 || ch.ctgBudget <= 0 || len(w) == 0 || ch.budget.Expired() {
		return false
	}
	ch.ctgBudget--
	if intersects, _ := ch.initIntersects(w); intersects {
		return false
	}
	r, coreCube := ch.blockQuery(w, frame)
	if r.Status != icp.StatusUnsat {
		return false
	}
	ch.stats["ctgBlocked"]++
	g := ch.generalize(w, coreCube, frame)
	ch.addBlockedCube(g, frame)
	return true
}

// restoreInitSeparation adds literals of c back into g until the cube is
// provably disjoint from Init again.
func (ch *checker) restoreInitSeparation(c, g icpCube) icpCube {
	have := make(map[tnf.Lit]bool, len(g))
	for _, l := range g {
		have[l] = true
	}
	out := append(icpCube{}, g...)
	for _, l := range c {
		if have[l] {
			continue
		}
		out = append(out, l)
		if intersects, _ := ch.initIntersects(out); !intersects {
			return out
		}
	}
	return out // full cube; caller checked Init ∩ c = ∅ earlier
}
