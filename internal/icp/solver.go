// Package icp implements an iSAT3-style CDCL(ICP) solver: a conflict-driven
// clause-learning search whose literals are interval bounds (x <= c,
// x >= c), whose deduction combines unit propagation over bound-literal
// clauses with HC4-revise interval contraction of ternary-normal-form
// arithmetic constraints, and whose decisions split interval domains.
//
// Soundness regime (exactly iSAT's): UNSAT answers are sound for the real
// semantics of the input system; SAT answers are ε-candidate boxes that a
// caller must validate (e.g. by concrete evaluation).  Assumption-based
// solving with UNSAT-core extraction supports the IC3 use case.
package icp

import (
	"math"
	"sort"

	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

// Status is the outcome of a Solve call.
type Status int

const (
	// StatusSat means a candidate solution box was found (ε-SAT: must be
	// validated by the caller for exactness).
	StatusSat Status = iota
	// StatusUnsat means the system has no real solution under the
	// assumptions (sound).
	StatusUnsat
	// StatusUnknown means a resource budget was exhausted.
	StatusUnknown
)

func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	case StatusUnknown:
		return "unknown"
	}
	return "?"
}

// Result carries the outcome of a Solve call.
type Result struct {
	Status Status
	// Box is the candidate solution box (indexed by VarID), set when
	// Status == StatusSat.
	Box []interval.Interval
	// Core is a subset of the assumptions sufficient for unsatisfiability,
	// set when Status == StatusUnsat.
	Core []tnf.Lit
}

// Options configures the solver.
type Options struct {
	// Eps is the minimal splitting width: real variables with domains no
	// wider than Eps are not split further.  Default 1e-4; the engines,
	// the certifier and the service override it with their own default,
	// engine.DefaultEps.
	Eps float64
	// Stop, when non-nil, is polled periodically during Solve; returning
	// true aborts the search with StatusUnknown.  The engines and the
	// certifier own this hook: each sets it to its run budget's Expired,
	// replacing any value a caller set.
	Stop func() bool
	// NoReduce disables learned-clause database reduction entirely (the
	// solver then keeps every clause it ever learns).  Used by the
	// bench-smoke invariance leg to prove clause deletion never changes
	// a verdict, and available as an escape hatch.
	NoReduce bool
	// ReduceInterval is the learned-clause growth (clauses added since the
	// last reduction) that triggers a database reduction.  0 means the
	// default of 2048; tests use small values to force frequent reductions.
	ReduceInterval int
	// NoPrefixRetention disables assumption-prefix trail retention:
	// every Solve then backtracks to level 0 on entry and exit (the
	// pre-retention behaviour).  Used by the differential fuzz target and
	// the invariance suites to prove retention never changes a verdict,
	// and available as a bisection escape hatch.
	NoPrefixRetention bool
}

// Per-Solve search budgets: a Solve call that exceeds either answers
// StatusUnknown.
const (
	maxConflicts = 200_000
	maxDecisions = 2_000_000
)

func (o Options) withDefaults() Options {
	if o.Eps <= 0 {
		o.Eps = 1e-4
	}
	if o.ReduceInterval <= 0 {
		o.ReduceInterval = 2048
	}
	return o
}

// Stats counts solver work across all Solve calls.
type Stats struct {
	Decisions    int64
	Conflicts    int64
	Propagations int64 // bound events
	Contractions int64 // successful constraint tightenings
	Learned      int64 // learned clauses
	Solves       int64
	Reductions   int64 // clause database reductions
	// WatchVisits counts watch-list entries inspected during propagation,
	// including entries whose guard survives the event (one comparison,
	// no clause load); entries detached from a root-satisfied clause are
	// no longer inspected and no longer counted.
	WatchVisits int64
	// Revisions counts HC4-revise calls, productive or not: one per
	// constraint taken off the contraction queue.
	Revisions      int64
	ClausesDeleted int64 // clauses deleted by reduceDB (learned and root-satisfied)
	LitsMinimized  int64 // literals dropped by conflict-clause minimization
	// PrefixKeptLevels counts assumption levels carried over from the
	// previous Solve by prefix retention (one per retained level per
	// Solve); TrailEventsSaved counts the above-root trail events those
	// levels held — propagation work the solver did not have to redo.
	PrefixKeptLevels int64
	TrailEventsSaved int64
	// SubsumedFrameClauses counts frame clauses retired by syntactic
	// subsumption.  It is maintained by the IC3 layer (the solver only
	// hosts the counter so one Stats struct carries the whole
	// deterministic work profile of a run).
	SubsumedFrameClauses int64
}

// Add sums o into s, field by field.
func (s *Stats) Add(o *Stats) {
	s.Decisions += o.Decisions
	s.Conflicts += o.Conflicts
	s.Propagations += o.Propagations
	s.Contractions += o.Contractions
	s.Learned += o.Learned
	s.Solves += o.Solves
	s.Reductions += o.Reductions
	s.WatchVisits += o.WatchVisits
	s.Revisions += o.Revisions
	s.ClausesDeleted += o.ClausesDeleted
	s.LitsMinimized += o.LitsMinimized
	s.PrefixKeptLevels += o.PrefixKeptLevels
	s.TrailEventsSaved += o.TrailEventsSaved
	s.SubsumedFrameClauses += o.SubsumedFrameClauses
}

const (
	sideLo = 0 // event raised a lower bound
	sideHi = 1 // event lowered an upper bound
)

type reasonKind int8

const (
	reasonDecision reasonKind = iota
	reasonClause
	reasonConstraint
)

// event records one bound tightening on the trail.  It holds no
// pointers: its antecedent trail indices are s.antes[anteLo:anteHi].
// Fields are ordered widest first, which packs the event into 48 bytes.
type event struct {
	old   float64 // endpoint value before the event
	nb    float64 // endpoint value after the event
	v     tnf.VarID
	level int32
	cl    int32 // clause index for reasonClause
	con   int32 // constraint index for reasonConstraint
	// anteLo, anteHi delimit the event's antecedent trail indices in
	// s.antes (-1 entries are skipped).
	anteLo, anteHi int32
	// prev is the trail index of the previous event on the same
	// (v, side), -1 if none — the pushdown that lets cancelUntil restore
	// lastLoEv/lastHiEv in O(1) per popped event instead of rescanning
	// the trail.
	prev    int32
	side    int8
	kind    reasonKind
	oldOpen bool // endpoint openness before the event
	nbOpen  bool // endpoint openness after the event
}

// lit returns the bound literal established by the event.
func (e *event) lit() tnf.Lit {
	if e.side == sideLo {
		return tnf.Lit{Var: e.v, Dir: tnf.DirGe, B: e.nb, Strict: e.nbOpen}
	}
	return tnf.Lit{Var: e.v, Dir: tnf.DirLe, B: e.nb, Strict: e.nbOpen}
}

type clause struct {
	lits    []tnf.Lit
	learned bool
	// w0, w1 are the indices of the two watched literals.  A
	// single-literal clause watches its only literal (w1 == -1) with a
	// guard that falls on every event of its list, so each such event
	// re-checks it.
	w0, w1 int32
	// lbd is the literal block distance at learning time (distinct
	// decision levels among the clause's literals); problem clauses
	// carry 0.  Low-LBD ("glue") clauses are exempt from reduction.
	lbd int32
	// act is the conflict-participation activity used to rank learned
	// clauses for deletion.
	act float64
}

// watcher is one watch-list entry: clause ci and a guard (b, strict),
// the earliest-falling watched literal of ci on this (var, direction)
// list.  The guard lives on the list's falling axis: an (x <= c) watch
// falls as lo rises past c, an (x >= c) watch as -hi rises past -c, so
// watchGe entries store the negated bound (negation is exact) and one
// comparison, fallen, serves both lists.  The guard may fall earlier
// than the literals it covers — the visit then finds nothing to do —
// but never later.
type watcher struct {
	ci     int32
	strict bool
	b      float64
}

// guardOf returns the guard of watched literal l of clause ci.
func guardOf(l tnf.Lit, ci int32) watcher {
	if l.Dir == tnf.DirLe {
		return watcher{ci: ci, strict: l.Strict, b: l.B}
	}
	return watcher{ci: ci, strict: l.Strict, b: -l.B}
}

// fallen reports whether the guard is falsified by the endpoint x on
// the list's falling axis (lo, or -hi for a watchGe list) with the
// given openness.  It is litFalse of the guard literal.
func (w watcher) fallen(x float64, open bool) bool {
	return x > w.b || (x == w.b && (w.strict || open))
}

// fallsBy reports whether guard w falls no later than guard u.
func (w watcher) fallsBy(u watcher) bool {
	return w.b < u.b || (w.b == u.b && (w.strict || !u.strict))
}

// conflict describes a dead end: the trail events that jointly imply false.
type conflict struct {
	ante []int32
}

// Solver is a CDCL(ICP) solver over a compiled tnf.System.
// It is not safe for concurrent use.
type Solver struct {
	opts Options

	vars           []tnf.VarInfo
	initial        []interval.Interval // declared domains
	lo, hi         []float64           // current domains
	loOpen, hiOpen []bool              // endpoint openness (strict bounds)

	cons    []tnf.Constraint
	varCons [][]int32 // var -> constraint indices

	clauses []clause
	// Two-watched bound literals: watchLe[v] lists clauses currently
	// watching an (x <= c) literal of v — the only clauses a lo-raising
	// event on v can falsify — and watchGe[v] the (x >= c) watchers
	// visited when v's hi drops.  A clause appears at most once per
	// (var, direction) list even when both its watches share one, and
	// each entry carries a guard (see watcher) so a trail event touches
	// a clause only once one of its watches on that list may have
	// fallen.  A clause satisfied at the root may lose its entries (see
	// visitWatched): it can never propagate again.
	watchLe [][]watcher
	watchGe [][]watcher

	trail     []event
	trailLim  []int32 // trail length at the start of each level
	lastLoEv  []int32 // var -> latest trail index that raised lo (-1 none)
	lastHiEv  []int32
	propHead  int32   // next trail index to scan for clause propagation
	conQueue  []int32 // dirty constraints
	inQueue   []bool
	newClause []int32 // clauses added since last propagation (to seed)

	nAssump     int       // number of assumption levels in current Solve
	assumptions []tnf.Lit // current assumptions (indexed by level-1)

	// Assumption-prefix trail retention (DESIGN.md §17).  retained is a
	// private copy of the assumptions backing the levels left standing by
	// the last Solve's exit; the next Solve backtracks only to the longest
	// positional prefix its own assumptions share with it.  fixLevel is
	// the deepest level whose state is a completed, conflict-free
	// propagation fixpoint — the only levels safe to leave standing:
	// at such a level every constraint was revised clean (so no interval
	// conflict can be hiding in the retained domains) and every queued
	// clause was seeded.  It is demoted by cancelUntil and by any event
	// appended to an already-fixpointed level (post-backjump UIP asserts,
	// pre-SAT exhaustive-check units), and re-established each time
	// propagate drains to fixpoint.  deferredRoot holds formula clauses
	// that were seeded while a prefix was retained (level > 0): their
	// unit consequences land at the retained level instead of the root,
	// so they are replayed into newClause at the next full backtrack to
	// make those facts permanent (retired one-shot query literals rely
	// on this to become root-satisfied and garbage-collectable).
	retained     []tnf.Lit
	fixLevel     int32
	deferredRoot []int32

	// anteScratch is the shared antecedent-snapshot buffer for
	// propagation (see revise/checkClause): setBound copies it into antes
	// only when an event is actually recorded, so the frequent
	// no-progress calls copy nothing.
	anteScratch []int32
	// antes holds the antecedents of every trail event, in trail order:
	// event i owns antes[trail[i].anteLo:trail[i].anteHi].  Events pop in
	// LIFO order, so cancelUntil truncates antes together with the trail,
	// and len(antes) is always the last event's anteHi (0 on an empty
	// trail).  Once warm, recording an event allocates nothing.
	antes []int32

	rootConflict bool // system is UNSAT at level 0
	stopped      bool // propagate observed the Stop hook firing mid-fixpoint

	// pendingCf carries a conflict discovered by the pre-SAT exhaustive
	// clause check back into the normal conflict-handling path: propagate
	// returns it on its next call.
	pendingCf *conflict

	// cfScratch/cfAnteBuf form the solver-owned conflict carrier: every
	// conflict is consumed (analyzed or traced into a core) before the
	// next propagation step can construct another, so the hot conflict
	// paths reuse one buffer instead of allocating per conflict.
	cfScratch conflict
	cfAnteBuf []int32

	// Phase (bound) saving: phase[v] is the side of the most recent
	// trail event on v undone by backtracking — sideHi when the search
	// last explored v's lower half, sideLo for the upper half.  decide
	// re-splits toward the saved side so backjumps and restarts revisit
	// the subtree they were thrown out of instead of re-deriving it.
	// phaseStamp[v] records the cancelUntil generation that saved the
	// phase (newest-event-wins within one backtrack, 0 = no phase yet).
	// phaseBase scopes saving to the current Solve call: stamps at or
	// below it are stale — phases from a previous query's backtracks are
	// noise for the next one and would perturb the width-first box
	// trajectory IC3's widening depends on.
	phase      []int8
	phaseStamp []int64
	phaseEpoch int64
	phaseBase  int64

	// Conflict-analysis scratch (analyze.go): epoch-stamped marks over
	// trail indices replace per-conflict maps, so analysis and clause
	// minimization allocate only when the trail outgrows the buffers.
	seenStamp []int64 // seenStamp[i] == seenEpoch: trail event i is marked
	seenEpoch int64
	redStamp  []int64 // memo for litRedundant, same epoch discipline
	redVal    []bool  // valid when redStamp matches; true = redundant
	lowerBuf  []int32 // reusable `lower` slice for analyze
	coreStack []int32 // reusable work stack for finalCore

	// branchMain/branchAux are the branching candidate lists, split by
	// tier and kept in ascending var order (ties in the pick loop go to
	// the earlier var, so order is part of the verdict).  Vars join on
	// creation and are compacted away during reduceDB once root-level
	// propagation has pinned them: a var undecidable at a level-0 state
	// can never become decidable again (domains only tighten at the
	// root, and search levels only tighten further), so dropping it
	// there is exact.  In IC3 workloads the main solver accumulates
	// thousands of retired one-shot query booleans; scanning them on
	// every decision dominated the branching cost.
	branchMain []tnf.VarID
	branchAux  []tnf.VarID

	claInc float64 // clause-activity increment (bumped clauses, decayed per conflict)

	// Sync progress over the source tnf.System
	nVarsSynced, nConsSynced, nClausesSynced int

	lastReduceSize int // clause count at the last DB reduction

	Stats Stats
}

// New builds a solver over the compiled system.  The system's clauses and
// constraints are installed; the system may keep growing afterwards —
// call Sync between Solve calls to pull in newly compiled variables,
// constraints and clauses.
func New(sys *tnf.System, opts Options) *Solver {
	s := &Solver{opts: opts.withDefaults(), claInc: 1}
	s.Sync(sys)
	return s
}

// Sync pulls variables, constraints and clauses added to sys since the
// last Sync (or New).  It must be called between Solve calls (the
// solver may be parked at a retained assumption prefix; new content is
// seeded by the next propagation and replayed at the root as needed).
// Clauses added directly with AddClause are unaffected.
func (s *Solver) Sync(sys *tnf.System) {
	for _, vi := range sys.Vars[s.nVarsSynced:] {
		s.addVarInfo(vi)
	}
	s.nVarsSynced = len(sys.Vars)
	for _, c := range sys.Cons[s.nConsSynced:] {
		s.addConstraint(c)
	}
	s.nConsSynced = len(sys.Cons)
	for _, cl := range sys.Clauses[s.nClausesSynced:] {
		s.AddClause(cl)
	}
	s.nClausesSynced = len(sys.Clauses)
}

func (s *Solver) addVarInfo(vi tnf.VarInfo) tnf.VarID {
	id := tnf.VarID(len(s.vars))
	s.vars = append(s.vars, vi)
	s.initial = append(s.initial, vi.Domain)
	d := vi.Domain
	if d.IsEmpty() {
		s.rootConflict = true
		d = interval.Point(0) // placeholder; solver reports UNSAT anyway
	}
	s.lo = append(s.lo, d.Lo)
	s.hi = append(s.hi, d.Hi)
	s.loOpen = append(s.loOpen, false)
	s.hiOpen = append(s.hiOpen, false)
	s.varCons = append(s.varCons, nil)
	s.watchLe = append(s.watchLe, nil)
	s.watchGe = append(s.watchGe, nil)
	s.lastLoEv = append(s.lastLoEv, -1)
	s.lastHiEv = append(s.lastHiEv, -1)
	s.phase = append(s.phase, 0)
	s.phaseStamp = append(s.phaseStamp, 0)
	// ids grow monotonically, so appending keeps the candidate lists in
	// the ascending order the branching tie-break relies on
	if vi.Aux && !vi.Integer {
		s.branchAux = append(s.branchAux, id)
	} else {
		s.branchMain = append(s.branchMain, id)
	}
	return id
}

// bumpClauseAct raises the deletion-ranking activity of a learned clause
// that participated in conflict analysis.
func (s *Solver) bumpClauseAct(ci int32) {
	c := &s.clauses[ci]
	if !c.learned {
		return
	}
	c.act += s.claInc
	if c.act > 1e20 {
		for i := range s.clauses {
			s.clauses[i].act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// decayClauseActs makes future clause bumps weigh more than past ones.
func (s *Solver) decayClauseActs() {
	s.claInc /= 0.999
}

// AddBoolVar introduces a fresh Boolean variable (used for activation
// literals by IC3).  Must be called between Solve calls.
func (s *Solver) AddBoolVar(name string) tnf.VarID {
	return s.addVarInfo(tnf.VarInfo{Name: name, Integer: true, Domain: interval.New(0, 1)})
}

func (s *Solver) addConstraint(c tnf.Constraint) {
	id := int32(len(s.cons))
	s.cons = append(s.cons, c)
	s.inQueue = append(s.inQueue, false)
	seen := map[tnf.VarID]bool{}
	for _, v := range s.conVarList(c) {
		if !seen[v] {
			seen[v] = true
			s.varCons[v] = append(s.varCons[v], id)
		}
	}
	s.enqueueCon(id)
}

func (s *Solver) conVarList(c tnf.Constraint) []tnf.VarID {
	switch c.Op {
	case tnf.ConAdd, tnf.ConMul, tnf.ConMin, tnf.ConMax:
		return []tnf.VarID{c.Z, c.X, c.Y}
	default:
		return []tnf.VarID{c.Z, c.X}
	}
}

// AddClause installs a clause.  It must be called between Solve calls;
// the clause takes effect on the next propagation (and, if the solver
// is parked at a retained assumption prefix, is additionally replayed
// at the root on the next full backtrack).
func (s *Solver) AddClause(c tnf.Clause) {
	s.addClauseInternal(c, false)
}

func (s *Solver) addClauseInternal(c tnf.Clause, learned bool) int32 {
	if len(c) == 0 {
		s.rootConflict = true
		return -1
	}
	lits := make([]tnf.Lit, len(c))
	copy(lits, c)
	id := int32(len(s.clauses))
	cl := clause{lits: lits, learned: learned, w0: -1, w1: -1}
	if len(lits) == 1 {
		// single-literal clauses watch their only literal so falsifying
		// events keep re-checking them (they are also asserted at seeding)
		cl.w0 = 0
	} else {
		cl.w0, cl.w1 = s.pickWatches(lits)
	}
	s.clauses = append(s.clauses, cl)
	s.attachWatches(id)
	s.newClause = append(s.newClause, id)
	return id
}

// pickWatches chooses the two initial watch indices: non-false literals
// first, then literals whose falsifying event is deepest on the trail.
// For a learned clause added at the conflict level this selects the UIP
// literal and the literal un-falsified first by the backjump — the
// MiniSat choice.  Deterministic: ties keep the earliest literal.
func (s *Solver) pickWatches(lits []tnf.Lit) (int32, int32) {
	best0, best1 := int32(-1), int32(-1)
	var score0, score1 int64 = -2, -2
	for i, l := range lits {
		var sc int64
		if !s.litFalse(l) {
			sc = int64(1) << 62
		} else {
			sc = int64(s.falsifyingEvent(l)) // -1: refuted by the initial domain
		}
		if sc > score0 {
			best1, score1 = best0, score0
			best0, score0 = int32(i), sc
		} else if sc > score1 {
			best1, score1 = int32(i), sc
		}
	}
	return best0, best1
}

// attachWatches registers clause id on the watch lists of its watched
// literals, collapsing to one entry when both watches share a
// (var, direction) list.
func (s *Solver) attachWatches(id int32) {
	c := &s.clauses[id]
	if c.w0 < 0 {
		return
	}
	l0 := c.lits[c.w0]
	s.addWatch(l0, s.watchEntry(id, l0.Var, l0.Dir))
	if c.w1 >= 0 {
		l1 := c.lits[c.w1]
		if l1.Var != l0.Var || l1.Dir != l0.Dir {
			s.addWatch(l1, guardOf(l1, id))
		}
	}
}

// watchEntry builds clause ci's entry for the (v, dir) list from its
// current watches: the earliest-falling watched literal on that list.
func (s *Solver) watchEntry(ci int32, v tnf.VarID, dir tnf.Dir) watcher {
	c := &s.clauses[ci]
	if c.w1 < 0 {
		// single-literal clause: a guard every event on its list falls
		return watcher{ci: ci, strict: true, b: math.Inf(-1)}
	}
	l0, l1 := c.lits[c.w0], c.lits[c.w1]
	on0 := l0.Var == v && l0.Dir == dir
	on1 := l1.Var == v && l1.Dir == dir
	switch {
	case on0 && on1:
		g0, g1 := guardOf(l0, ci), guardOf(l1, ci)
		if g1.fallsBy(g0) {
			return g1
		}
		return g0
	case on1:
		return guardOf(l1, ci)
	}
	return guardOf(l0, ci)
}

// watchList returns the watch list scanned by events that can falsify a
// (v, dir) literal: lo-raising events for (x <= c), hi-lowering for
// (x >= c).
func (s *Solver) watchList(v tnf.VarID, dir tnf.Dir) *[]watcher {
	if dir == tnf.DirLe {
		return &s.watchLe[v]
	}
	return &s.watchGe[v]
}

// addWatch appends entry w to the watch list of l.
func (s *Solver) addWatch(l tnf.Lit, w watcher) {
	ws := s.watchList(l.Var, l.Dir)
	*ws = append(*ws, w)
}

// tightenGuard lowers clause ci's guard on l's list to l when l falls
// earlier: a watch relocated onto the list of the clause's other watch
// shares that watch's existing entry.
func (s *Solver) tightenGuard(l tnf.Lit, ci int32) {
	list := *s.watchList(l.Var, l.Dir)
	for i := range list {
		if list[i].ci == ci {
			if g := guardOf(l, ci); g.fallsBy(list[i]) {
				list[i] = g
			}
			return
		}
	}
}

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return len(s.vars) }

// VarInfo returns the metadata of v.
func (s *Solver) VarInfo(v tnf.VarID) tnf.VarInfo { return s.vars[v] }

// Domain returns the current domain of v (initial domain at level 0).
func (s *Solver) Domain(v tnf.VarID) interval.Interval {
	return interval.New(s.lo[v], s.hi[v])
}

func (s *Solver) level() int32 { return int32(len(s.trailLim)) }

// litTrue reports whether l is entailed by the current domains.
func (s *Solver) litTrue(l tnf.Lit) bool {
	if l.Dir == tnf.DirLe {
		hi := s.hi[l.Var]
		if l.Strict { // x < B for all x in domain
			return hi < l.B || (hi == l.B && s.hiOpen[l.Var])
		}
		return hi <= l.B
	}
	lo := s.lo[l.Var]
	if l.Strict { // x > B
		return lo > l.B || (lo == l.B && s.loOpen[l.Var])
	}
	return lo >= l.B
}

// litFalse reports whether l is refuted by the current domains.
func (s *Solver) litFalse(l tnf.Lit) bool {
	if l.Dir == tnf.DirLe {
		lo := s.lo[l.Var]
		if l.Strict { // no x < B
			return lo >= l.B
		}
		return lo > l.B || (lo == l.B && s.loOpen[l.Var])
	}
	hi := s.hi[l.Var]
	if l.Strict { // no x > B
		return hi <= l.B
	}
	return hi < l.B || (hi == l.B && s.hiOpen[l.Var])
}

// negLit mirrors tnf.System.NegLit using the solver's variable table:
// exact negation via strictness flipping (integral bounds shift instead).
func (s *Solver) negLit(l tnf.Lit) tnf.Lit {
	if s.vars[l.Var].Integer {
		if l.Dir == tnf.DirLe {
			b := math.Floor(l.B)
			if l.Strict {
				b = math.Ceil(l.B) - 1 //lint:allow roundcheck integral bound shift is exact for |b| < 2^53
			}
			return tnf.MkGe(l.Var, b+1)
		}
		b := math.Ceil(l.B)
		if l.Strict {
			b = math.Floor(l.B) + 1 //lint:allow roundcheck integral bound shift is exact for |b| < 2^53
		}
		return tnf.MkLe(l.Var, b-1)
	}
	if l.Dir == tnf.DirLe {
		return tnf.Lit{Var: l.Var, Dir: tnf.DirGe, B: l.B, Strict: !l.Strict}
	}
	return tnf.Lit{Var: l.Var, Dir: tnf.DirLe, B: l.B, Strict: !l.Strict}
}

// falsifyingEvent returns the trail index of the event that refutes l
// (-1 if the initial domain already refutes it).
func (s *Solver) falsifyingEvent(l tnf.Lit) int32 {
	if l.Dir == tnf.DirLe {
		return s.lastLoEv[l.Var]
	}
	return s.lastHiEv[l.Var]
}

// trueAtRoot reports whether l, currently true, was made true at level 0
// (by the initial domain or a level-0 event, one below trailLim[0]): it
// then stays true for good, since level 0 is never undone.
func (s *Solver) trueAtRoot(l tnf.Lit) bool {
	ev := s.lastLoEv[l.Var]
	if l.Dir == tnf.DirLe {
		ev = s.lastHiEv[l.Var]
	}
	return ev < 0 || len(s.trailLim) == 0 || ev < s.trailLim[0]
}

// pushLevel opens a new decision level.
func (s *Solver) pushLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
}

// cancelUntil undoes all trail events above the given level, saving the
// phase (side) of each variable's newest undone event for decide.
func (s *Solver) cancelUntil(lvl int32) {
	if lvl >= s.level() {
		return
	}
	s.phaseEpoch++
	limit := s.trailLim[lvl]
	for i := int32(len(s.trail)) - 1; i >= limit; i-- {
		e := &s.trail[i]
		if s.phaseStamp[e.v] != s.phaseEpoch {
			s.phaseStamp[e.v] = s.phaseEpoch
			s.phase[e.v] = e.side
		}
		if e.side == sideLo {
			s.lo[e.v] = e.old
			s.loOpen[e.v] = e.oldOpen
			s.lastLoEv[e.v] = e.prev
		} else {
			s.hi[e.v] = e.old
			s.hiOpen[e.v] = e.oldOpen
			s.lastHiEv[e.v] = e.prev
		}
	}
	if limit < int32(len(s.trail)) {
		s.antes = s.antes[:s.trail[limit].anteLo]
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:lvl]
	if s.propHead > limit {
		s.propHead = limit
	}
	if lvl < s.fixLevel {
		s.fixLevel = lvl
	}
}

// setBound applies a bound tightening.  Returns:
//   - (nil, true) if the bound was applied (a trail event was pushed);
//   - (nil, false) if it was a no-op or skipped for lack of progress;
//   - (*conflict, false) if it empties the domain.
//
// threshold > 0 demands minimal progress (used by contraction only).
// strict marks an open bound (x > b / x < b); integral variables normalize
// strictness away.
func (s *Solver) setBound(v tnf.VarID, side int8, b float64, strict bool, threshold float64,
	kind reasonKind, cl, con int32, ante []int32) (*conflict, bool) {

	if s.vars[v].Integer {
		if side == sideLo {
			if strict {
				b = math.Floor(b) + 1
			} else {
				b = math.Ceil(b)
			}
		} else {
			if strict {
				b = math.Ceil(b) - 1
			} else {
				b = math.Floor(b)
			}
		}
		strict = false
	}
	if math.IsNaN(b) {
		return nil, false
	}
	var old float64
	var oldOpen bool
	if side == sideLo {
		old, oldOpen = s.lo[v], s.loOpen[v]
		if b < old || (b == old && (oldOpen || !strict)) {
			return nil, false // no progress
		}
		hi, hiOpen := s.hi[v], s.hiOpen[v]
		if b > hi || (b == hi && (strict || hiOpen)) {
			// conflict: antecedents plus the event that set hi
			return s.scratchConflict(ante, s.lastHiEv[v]), false
		}
		if threshold > 0 && b-old < threshold && b != old && !s.vars[v].Integer {
			return nil, false
		}
		s.lo[v] = b
		s.loOpen[v] = strict || (b == old && oldOpen)
	} else {
		old, oldOpen = s.hi[v], s.hiOpen[v]
		if b > old || (b == old && (oldOpen || !strict)) {
			return nil, false
		}
		lo, loOpen := s.lo[v], s.loOpen[v]
		if b < lo || (b == lo && (strict || loOpen)) {
			return s.scratchConflict(ante, s.lastLoEv[v]), false
		}
		if threshold > 0 && old-b < threshold && b != old && !s.vars[v].Integer {
			return nil, false
		}
		s.hi[v] = b
		s.hiOpen[v] = strict || (b == old && oldOpen)
	}
	idx := int32(len(s.trail))
	// appending to an already-fixpointed level invalidates its fixpoint
	// status until propagate drains again (retention may only keep
	// completed fixpoint levels — see the fixLevel invariant)
	if lvl := s.level(); s.fixLevel >= lvl {
		s.fixLevel = lvl - 1
	}
	var nbOpen bool
	if side == sideLo {
		nbOpen = s.loOpen[v]
	} else {
		nbOpen = s.hiOpen[v]
	}
	// ante may be the caller's scratch buffer; the event owns a copy
	anteLo := int32(len(s.antes))
	s.antes = append(s.antes, ante...)
	ev := event{
		v: v, side: side, old: old, oldOpen: oldOpen, nb: b, nbOpen: nbOpen,
		level: s.level(), kind: kind, cl: cl, con: con,
		anteLo: anteLo, anteHi: int32(len(s.antes)),
	}
	if side == sideLo {
		ev.prev = s.lastLoEv[v]
		s.lastLoEv[v] = idx
	} else {
		ev.prev = s.lastHiEv[v]
		s.lastHiEv[v] = idx
	}
	s.trail = append(s.trail, ev)
	s.Stats.Propagations++
	// wake constraints watching v
	for _, ci := range s.varCons[v] {
		s.enqueueCon(ci)
	}
	return nil, true
}

// scratchConflict builds a conflict over the reusable carrier from the
// given antecedents plus optional extra trail indices.
func (s *Solver) scratchConflict(ante []int32, extra ...int32) *conflict {
	s.cfAnteBuf = append(append(s.cfAnteBuf[:0], ante...), extra...)
	s.cfScratch.ante = s.cfAnteBuf
	return &s.cfScratch
}

// anteOf returns the antecedents of trail event e.  The slice aliases
// s.antes (cap == len, so an append reallocates instead of clobbering
// the next event's); read it before the trail changes.
func (s *Solver) anteOf(e *event) []int32 { return s.antes[e.anteLo:e.anteHi:e.anteHi] }

// assertLit applies the bound of l with the given reason.
func (s *Solver) assertLit(l tnf.Lit, kind reasonKind, cl, con int32, ante []int32) (*conflict, bool) {
	if l.Dir == tnf.DirLe {
		return s.setBound(l.Var, sideHi, l.B, l.Strict, 0, kind, cl, con, ante)
	}
	return s.setBound(l.Var, sideLo, l.B, l.Strict, 0, kind, cl, con, ante)
}

func (s *Solver) enqueueCon(ci int32) {
	if !s.inQueue[ci] {
		s.inQueue[ci] = true
		s.conQueue = append(s.conQueue, ci)
	}
}

// decidable reports whether v can still be split.
func (s *Solver) decidable(v tnf.VarID) bool {
	lo, hi := s.lo[v], s.hi[v]
	if s.vars[v].Integer {
		return lo < hi
	}
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return true
	}
	return hi-lo > s.opts.Eps
}

// compactBranchCands drops root-undecidable vars from the branching
// candidate lists.  Must run at level 0 (reduceDB time): dropping is
// then exact, since root domains only tighten and search levels tighten
// further, so such a var can never become decidable again.  In-place
// filtering preserves the ascending var order the pick loop's
// tie-breaking depends on.
func (s *Solver) compactBranchCands() {
	keepDecidable := func(cands []tnf.VarID) []tnf.VarID {
		kept := cands[:0]
		for _, v := range cands {
			if s.decidable(v) {
				kept = append(kept, v)
			}
		}
		return kept
	}
	s.branchMain = keepDecidable(s.branchMain)
	s.branchAux = keepDecidable(s.branchAux)
}

// pickBranchVar selects the variable with the widest relative domain.
// Primary (user-declared) and integral variables are preferred; auxiliary
// real variables introduced by the TNF compiler are split only when no
// primary choice remains, because they normally contract by propagation
// once the primaries are fixed.
func (s *Solver) pickBranchVar() (tnf.VarID, bool) {
	if v, ok := s.pickBranchTier(s.branchMain); ok {
		return v, true
	}
	return s.pickBranchTier(s.branchAux)
}

func (s *Solver) pickBranchTier(cands []tnf.VarID) (tnf.VarID, bool) {
	best := tnf.VarID(-1)
	bestScore := -1.0
	for _, v := range cands {
		if !s.decidable(v) {
			continue
		}
		w := s.hi[v] - s.lo[v] //lint:allow roundcheck branching score heuristic; never becomes an enclosure bound
		score := w
		if math.IsInf(w, 1) || math.IsNaN(w) {
			score = math.MaxFloat64
		} else {
			iw := s.initial[v].Width()
			if iw > 0 && !math.IsInf(iw, 0) {
				score = w / iw // relative width for bounded vars
			}
		}
		if score > bestScore {
			bestScore = score
			best = v
		}
	}
	return best, best >= 0
}

// decide splits the domain of v.  With a saved phase the split re-enters
// the half the search last explored (an undone sideLo event means the
// upper half was being tightened); otherwise lower half first.
func (s *Solver) decide(v tnf.VarID) *conflict {
	s.pushLevel()
	s.Stats.Decisions++
	upper := s.phaseStamp[v] > s.phaseBase && s.phase[v] == sideLo
	mid := interval.New(s.lo[v], s.hi[v]).Mid()
	if s.vars[v].Integer {
		mid = math.Floor(mid)
		if mid >= s.hi[v] {
			// both split halves cover the box for any split point, and the
			// integral step is exact
			mid = s.hi[v] - 1 //lint:allow roundcheck split-point choice; both halves cover the box
		}
		if mid < s.lo[v] {
			mid = s.lo[v]
		}
		if upper {
			// integral step is exact; the complement branch is x <= mid
			cf, _ := s.setBound(v, sideLo, mid+1, false, 0, reasonDecision, -1, -1, nil)
			return cf
		}
	} else {
		// keep the split strictly inside the interval
		if mid <= s.lo[v] {
			mid = interval.NextUp(s.lo[v])
		}
		if mid >= s.hi[v] {
			mid = interval.NextDown(s.hi[v])
		}
		if upper {
			cf, _ := s.setBound(v, sideLo, mid, false, 0, reasonDecision, -1, -1, nil)
			return cf
		}
	}
	cf, _ := s.setBound(v, sideHi, mid, false, 0, reasonDecision, -1, -1, nil)
	return cf
}

// Solve runs the CDCL(ICP) search under the given assumptions.
func (s *Solver) Solve(assumptions []tnf.Lit) Result {
	return s.SolveAccept(assumptions, nil)
}

// SolveAccept is Solve with an early exit for callers that only need to
// know the query is satisfiable.  At every conflict-free propagation
// fixpoint with all assumptions in place, before it picks a branching
// variable, the search calls accept with the current box (lo[v], hi[v]
// for variable v; read-only, valid during the call only).  A true answer
// ends the search with StatusSat and that box, which is in general wider
// than ε: it is not a solution box, and the solver has not checked it.
// The caller must only answer true when it knows the query has a real
// solution (say, an exact witness point it verified itself); then no
// search could end in StatusUnsat, so the early exit changes which Sat
// box is returned, never whether the query is satisfiable.  A nil accept
// is Solve.
func (s *Solver) SolveAccept(assumptions []tnf.Lit, accept func(lo, hi []float64) bool) Result {
	s.Stats.Solves++
	if s.rootConflict {
		return Result{Status: StatusUnsat}
	}
	// Assumption-prefix retention: backtrack only to the longest
	// positional prefix shared with the previous query's retained levels
	// instead of to 0 — consecution queries against the same frame keep
	// the propagated frame context and re-establish only the cube
	// literals.  Soundness: each retained level was left at a completed
	// conflict-free propagation fixpoint (fixLevel), its events are real
	// derivations from the formula plus the positionally identical
	// assumption prefix, and the formula itself only grows, so cores
	// traced through retained events remain valid; the SAT side is
	// already an ε-candidate guarded by the pre-SAT exhaustive check.
	// A due clause-database reduction forces a full backtrack: reduceDB's
	// root-satisfaction and watch-rebuild logic is only exact at level 0.
	reduceDue := !s.opts.NoReduce && len(s.clauses)-s.lastReduceSize >= s.opts.ReduceInterval
	keep := int32(0)
	if !s.opts.NoPrefixRetention && !reduceDue {
		maxKeep := int32(len(s.retained))
		if lv := s.level(); maxKeep > lv {
			maxKeep = lv // defensive: retained never outruns the trail
		}
		if n := int32(len(assumptions)); maxKeep > n {
			maxKeep = n
		}
		for keep < maxKeep && assumptions[keep] == s.retained[keep] {
			keep++
		}
	}
	if keep > 0 {
		kept := int32(len(s.trail))
		if keep < s.level() {
			kept = s.trailLim[keep]
		}
		s.Stats.PrefixKeptLevels += int64(keep)
		s.Stats.TrailEventsSaved += int64(kept - s.trailLim[0])
	}
	s.cancelUntil(keep)
	s.pendingCf = nil
	s.phaseBase = s.phaseEpoch // phases saved before this Solve are stale
	if s.level() == 0 && len(s.deferredRoot) > 0 {
		// replay formula clauses first seeded at a retained level so their
		// unit consequences become permanent root facts (and root-satisfied
		// clauses become collectable by the next reduction)
		s.newClause = append(s.deferredRoot, s.newClause...)
		s.deferredRoot = nil
	}
	s.maybeReduceDB()
	s.nAssump = len(assumptions)
	s.assumptions = assumptions

	conflicts := int64(0)
	decisions := int64(0)
	noProgress := 0
	sinceStopPoll := 0
	const maxNoProgress = 64

	for {
		if s.opts.Stop != nil {
			sinceStopPoll++
			if sinceStopPoll >= 64 {
				sinceStopPoll = 0
				if s.opts.Stop() {
					s.retainOnExit()
					return Result{Status: StatusUnknown}
				}
			}
		}
		cf := s.propagate()
		if s.stopped {
			// the fixpoint was truncated by the Stop hook: the partial
			// contraction is sound but incomplete, so no Sat verdict may
			// be derived from it — abort as Unknown immediately.
			s.stopped = false
			s.retainOnExit()
			return Result{Status: StatusUnknown}
		}
		if cf == nil && s.fixLevel < s.level() {
			// the current level reached a conflict-free propagation
			// fixpoint: it is now safe for retention to leave standing
			s.fixLevel = s.level()
		}
		if cf != nil {
			s.Stats.Conflicts++
			s.decayClauseActs()
			conflicts++
			lvl := s.maxAnteLevel(cf.ante)
			if lvl <= int32(s.nAssump) {
				if lvl == 0 {
					s.rootConflict = true // formula itself is UNSAT
				}
				core := s.finalCore(cf.ante)
				s.retainOnExit()
				return Result{Status: StatusUnsat, Core: core}
			}
			if conflicts > maxConflicts {
				s.retainOnExit()
				return Result{Status: StatusUnknown}
			}
			learnt, assertLit, btLevel, lbd, ok := s.analyze(cf, lvl)
			if !ok {
				// degenerate conflict (no resolvable structure): give up
				s.retainOnExit()
				return Result{Status: StatusUnknown}
			}
			if btLevel < int32(s.nAssump) {
				btLevel = s.clampAssumptionLevel(btLevel)
			}
			cid := s.addClauseInternal(learnt, true)
			s.Stats.Learned++
			if cid >= 0 {
				s.clauses[cid].lbd = lbd
				s.clauses[cid].act = s.claInc
			}
			s.cancelUntil(btLevel)
			// Assert the UIP negation; antecedents are the falsifying
			// events of the other learned literals.
			ante := make([]int32, 0, len(learnt))
			for _, l := range learnt {
				if l == assertLit {
					continue
				}
				ante = append(ante, s.falsifyingEvent(l))
			}
			cf2, applied := s.assertLit(assertLit, reasonClause, cid, -1, ante)
			if cf2 != nil {
				lvl2 := s.maxAnteLevel(cf2.ante)
				if lvl2 <= int32(s.nAssump) {
					core := s.finalCore(cf2.ante)
					s.retainOnExit()
					return Result{Status: StatusUnsat, Core: core}
				}
				// rare: asserting lit conflicts above assumption levels;
				// back off one more level and continue the outer loop
				s.cancelUntil(lvl2 - 1)
			} else if !applied {
				// The asserting bound made no progress (boundary overlap of
				// relaxed negation).  Back off one more level to perturb the
				// deterministic search; give up if it keeps happening.
				noProgress++
				if noProgress > maxNoProgress {
					s.retainOnExit()
					return Result{Status: StatusUnknown}
				}
				if btLevel > 0 {
					s.cancelUntil(btLevel - 1)
				}
			} else {
				noProgress = 0
			}
			continue
		}

		// re-establish assumptions after backjumps/restarts
		if s.level() < int32(s.nAssump) {
			idx := int(s.level())
			s.pushLevel()
			a := s.assumptions[idx]
			if s.litFalse(a) {
				// assumption refuted by current (level <= idx) knowledge
				core := s.finalCore([]int32{s.falsifyingEvent(a)})
				core = append(core, a)
				s.retainOnExit()
				return Result{Status: StatusUnsat, Core: core}
			}
			if cf2, _ := s.assertLit(a, reasonDecision, -1, -1, nil); cf2 != nil {
				core := s.finalCore(cf2.ante)
				core = append(core, a)
				s.retainOnExit()
				return Result{Status: StatusUnsat, Core: core}
			}
			continue
		}

		if accept != nil && accept(s.lo, s.hi) {
			box := s.box()
			s.retainOnExit()
			return Result{Status: StatusSat, Box: box}
		}
		v, ok := s.pickBranchVar()
		if !ok {
			// Watched propagation is lazy after backtracks: a clause whose
			// watch fell at a lower level may have become unit or false
			// without a fresh event on its watch lists.  Before trusting
			// the box, re-check every clause exhaustively; a conflict is
			// routed through pendingCf into the normal analysis path, and
			// any asserted unit restarts propagation.
			if prog, cfAll := s.checkAllClauses(); cfAll != nil {
				s.pendingCf = cfAll
				continue
			} else if prog {
				continue
			}
			box := s.box()
			s.retainOnExit()
			return Result{Status: StatusSat, Box: box}
		}
		decisions++
		if decisions > maxDecisions {
			s.retainOnExit()
			return Result{Status: StatusUnknown}
		}
		if cf2 := s.decide(v); cf2 != nil {
			// a decision can only conflict on pathological domains; treat
			// it as a regular conflict next iteration by synthesizing one
			lvl := s.maxAnteLevel(cf2.ante)
			if lvl <= int32(s.nAssump) {
				core := s.finalCore(cf2.ante)
				s.retainOnExit()
				return Result{Status: StatusUnsat, Core: core}
			}
			s.cancelUntil(lvl - 1)
		}
	}
}

// box copies the current bounds.  Call it before retainOnExit, which
// may backtrack them.
func (s *Solver) box() []interval.Interval {
	box := make([]interval.Interval, len(s.vars))
	for i := range s.vars {
		box[i] = interval.New(s.lo[i], s.hi[i])
	}
	return box
}

// retainOnExit unwinds the trail at the end of a Solve call.  With
// retention enabled it keeps the deepest assumption prefix known to be
// at a completed, conflict-free propagation fixpoint (min(fixLevel,
// nAssump) — search levels beyond the assumptions are never kept) and
// records a private copy of the assumptions backing those levels for
// the next Solve's prefix match.  With NoPrefixRetention it degenerates
// to the historical full backtrack.
func (s *Solver) retainOnExit() {
	r := s.fixLevel
	if n := int32(s.nAssump); r > n {
		r = n
	}
	if r < 0 || s.opts.NoPrefixRetention {
		r = 0
	}
	s.cancelUntil(r)
	s.retained = append(s.retained[:0], s.assumptions[:r]...)
}

// clampAssumptionLevel returns the level to backjump to when analysis
// points below the assumption levels: we return to just below the
// shallowest assumption still intact, letting the main loop re-push.
func (s *Solver) clampAssumptionLevel(btLevel int32) int32 {
	if btLevel < 0 {
		return 0
	}
	return btLevel
}

// maybeReduceDB garbage-collects the clause database between Solve calls.
// Clauses permanently satisfied at the root level (e.g. retired one-shot
// query clauses from IC3) are dropped whether learned or not; beyond
// that, the lowest-activity half of the deletable learned clauses goes.
// Exempt from deletion: clauses pending in newClause (not yet seeded),
// problem clauses, clauses locked as the reason of a surviving level-0
// trail event, binary clauses, and low-LBD ("glue") clauses.  Trail
// clause references are remapped (deleted reasons become -1, harmless:
// conflict analysis works on antecedent event indices only) and the
// watch lists are rebuilt from scratch.
func (s *Solver) maybeReduceDB() {
	if s.opts.NoReduce || s.level() != 0 {
		return
	}
	if len(s.clauses)-s.lastReduceSize < s.opts.ReduceInterval {
		return
	}
	satisfiedAtRoot := func(c *clause) bool {
		for _, l := range c.lits {
			if s.litTrue(l) {
				return true
			}
		}
		return false
	}
	pending := make(map[int32]bool, len(s.newClause))
	for _, ci := range s.newClause {
		pending[ci] = true
	}
	locked := make(map[int32]bool)
	for i := range s.trail {
		e := &s.trail[i]
		if e.kind == reasonClause && e.cl >= 0 {
			locked[e.cl] = true
		}
	}
	keep := make([]bool, len(s.clauses))
	var cand []int32 // deletable learned clauses
	for i := range s.clauses {
		c := &s.clauses[i]
		id := int32(i)
		switch {
		case pending[id]:
			keep[i] = true
		case satisfiedAtRoot(c):
			// dead weight whether learned or not
		case !c.learned, locked[id], len(c.lits) <= 2, c.lbd <= 2:
			keep[i] = true
		default:
			cand = append(cand, id)
		}
	}
	// keep the highest-activity half of the candidates (ties break toward
	// keeping the younger clause, deterministically)
	sort.Slice(cand, func(a, b int) bool {
		ca, cb := &s.clauses[cand[a]], &s.clauses[cand[b]]
		if ca.act != cb.act {
			return ca.act < cb.act
		}
		return cand[a] < cand[b]
	})
	for _, id := range cand[len(cand)/2:] {
		keep[id] = true
	}
	remap := make([]int32, len(s.clauses))
	kept := s.clauses[:0:0]
	for i := range s.clauses {
		if !keep[i] {
			remap[i] = -1
			s.Stats.ClausesDeleted++
			continue
		}
		remap[i] = int32(len(kept))
		kept = append(kept, s.clauses[i])
	}
	s.clauses = kept
	for i, ci := range s.newClause {
		s.newClause[i] = remap[ci]
	}
	// deferredRoot is normally drained before a reduction (the Solve
	// prologue replays it whenever the trail is fully unwound, and a due
	// reduction forces that), but remap defensively: a deleted clause
	// was root-satisfied, so dropping its replay entry is exact.
	if len(s.deferredRoot) > 0 {
		keptDef := s.deferredRoot[:0]
		for _, ci := range s.deferredRoot {
			if remap[ci] >= 0 {
				keptDef = append(keptDef, remap[ci])
			}
		}
		s.deferredRoot = keptDef
	}
	for i := range s.trail {
		e := &s.trail[i]
		if e.kind == reasonClause && e.cl >= 0 {
			e.cl = remap[e.cl]
		}
	}
	s.lastReduceSize = len(kept)
	s.Stats.Reductions++
	s.compactBranchCands()
	// rebuild watch lists from scratch (level 0: falsifyingEvent is valid)
	for v := range s.watchLe {
		s.watchLe[v] = s.watchLe[v][:0]
		s.watchGe[v] = s.watchGe[v][:0]
	}
	for i := range s.clauses {
		c := &s.clauses[i]
		if len(c.lits) >= 2 {
			c.w0, c.w1 = s.pickWatches(c.lits)
		}
		s.attachWatches(int32(i))
	}
}

// maxAnteLevel returns the deepest level among the antecedent events.
func (s *Solver) maxAnteLevel(ante []int32) int32 {
	lvl := int32(0)
	for _, a := range ante {
		if a >= 0 && s.trail[a].level > lvl {
			lvl = s.trail[a].level
		}
	}
	return lvl
}
