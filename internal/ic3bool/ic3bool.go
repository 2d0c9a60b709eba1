// Package ic3bool implements the classic Boolean IC3/PDR algorithm
// (Bradley 2011) over and-inverter graph circuits, using the CDCL SAT
// solver of package sat.  It serves as the Boolean baseline the
// ICP-augmented IC3 (package ic3icp) is contrasted with, and as a sanity
// anchor: it is a complete, sound model checker for safety properties of
// finite-state circuits.
package ic3bool

import (
	"container/heap"
	"fmt"
	"sort"

	"icpic3/internal/aig"
	"icpic3/internal/engine"
	"icpic3/internal/sat"
)

// Verdict is the outcome of a model-checking run.
type Verdict int

const (
	// Safe: the bad state is unreachable; an inductive invariant exists.
	Safe Verdict = iota
	// Unsafe: a concrete counterexample trace was found.
	Unsafe
	// Unknown: a resource budget was exhausted.
	Unknown
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "safe"
	case Unsafe:
		return "unsafe"
	}
	return "unknown"
}

// LatchLit is one literal of a state cube: latch index and value.
type LatchLit struct {
	Idx int
	Val bool
}

// Cube is a conjunction of latch literals, sorted by index.
type Cube []LatchLit

func (c Cube) String() string {
	s := ""
	for i, l := range c {
		if i > 0 {
			s += " & "
		}
		if l.Val {
			s += fmt.Sprintf("l%d", l.Idx)
		} else {
			s += fmt.Sprintf("!l%d", l.Idx)
		}
	}
	return s
}

// Step is one transition of a counterexample trace.
type Step struct {
	State  []bool // latch values
	Inputs []bool // inputs applied in this state
}

// Result is the outcome of Check.
type Result struct {
	Verdict   Verdict
	Trace     []Step // counterexample (Unsafe): init state first
	Invariant []Cube // blocked cubes of the invariant frame (Safe):
	// the inductive invariant is P AND the negations of these cubes
	Frames int // frames explored
	Stats  Stats
}

// Stats counts algorithmic work.
type Stats struct {
	Queries      int64
	Obligations  int64
	BlockedCubes int64
	Propagated   int64
	CoreShrunk   int64 // literals removed by UNSAT cores
	DropShrunk   int64 // literals removed by explicit re-query dropping
	TernShrunk   int64 // literals removed by ternary simulation
}

// Options configures the PDR run.
type Options struct {
	// MaxFrames bounds the number of frames (0 = 1000).
	MaxFrames int
	// StrongGeneralize enables literal dropping by re-query after the
	// UNSAT-core shrink.
	StrongGeneralize bool
	// Budget bounds the run by wall-clock time and supports cooperative
	// cancellation (see engine.Budget.WithDone); exhaustion yields Unknown.
	Budget engine.Budget
}

func (o Options) withDefaults() Options {
	if o.MaxFrames <= 0 {
		o.MaxFrames = 1000
	}
	return o
}

// maxObligations bounds the total proof obligations of a run.
const maxObligations = 5_000_000

// checker holds the solver state of one PDR run.
type checker struct {
	c    *aig.Circuit
	opts Options
	s    *sat.Solver
	enc  *aig.Encoder
	nv   []int // node -> sat var for the single transition frame

	stateVar []int     // latch idx -> sat var (current state)
	nextLit  []sat.Lit // latch idx -> sat literal of next-state function
	badLit   sat.Lit
	initVals []bool

	frameAct []int    // frame level -> activation var
	frames   [][]Cube // frame level -> blocked cubes at that level
	stats    Stats
	budget   engine.Budget
}

// obligation is a proof obligation: block cube at the given frame.
type obligation struct {
	cube  Cube // possibly ternary-reduced: every state in it reaches bad
	frame int
	depth int // distance to the bad state, for trace reconstruction
	// succ links toward the bad state for counterexample extraction
	succ   *obligation
	inputs []bool // inputs taking any cube state into succ's cube
}

type obligationQueue []*obligation

func (q obligationQueue) Len() int { return len(q) }
func (q obligationQueue) Less(i, j int) bool {
	if q[i].frame != q[j].frame {
		return q[i].frame < q[j].frame
	}
	return q[i].depth > q[j].depth
}
func (q obligationQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *obligationQueue) Push(x interface{}) { *q = append(*q, x.(*obligation)) }
func (q *obligationQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// Check model-checks the circuit's bad output.  A cone-of-influence
// reduction is applied first; traces and invariants are mapped back to the
// original circuit.
func Check(c *aig.Circuit, opts Options) Result {
	coi := c.ReduceCOI()
	if !coi.Reduced {
		return checkRaw(c, opts)
	}
	res := checkRaw(coi.Circuit, opts)
	switch res.Verdict {
	case Unsafe:
		// rebuild the trace on the original circuit: expand the reduced
		// input vectors (dropped inputs are don't-cares) and re-simulate
		// from the original initial state
		steps := make([]Step, len(res.Trace))
		st := c.InitState()
		for i, rstep := range res.Trace {
			ins := make([]bool, len(c.Inputs))
			for ri, oi := range coi.InputMap {
				if ri < len(rstep.Inputs) {
					ins[oi] = rstep.Inputs[ri]
				}
			}
			steps[i] = Step{State: append([]bool{}, st...), Inputs: ins}
			st, _ = c.Step(st, ins)
		}
		res.Trace = steps
	case Safe:
		// remap invariant cube latch indices to the original circuit
		for i, cube := range res.Invariant {
			mapped := make(Cube, len(cube))
			for j, l := range cube {
				mapped[j] = LatchLit{Idx: coi.LatchMap[l.Idx], Val: l.Val}
			}
			res.Invariant[i] = mapped
		}
	}
	return res
}

// checkRaw runs PDR without preprocessing.
func checkRaw(c *aig.Circuit, opts Options) Result {
	ch := &checker{c: c, opts: opts.withDefaults(), s: sat.New()}
	ch.budget = opts.Budget.Start()
	ch.s.Stop = ch.budget.Expired // aborts long SAT calls mid-search
	ch.enc = aig.NewEncoder(c)
	ch.nv = ch.enc.Frame(ch.s)
	ch.stateVar = make([]int, len(c.Latches))
	ch.nextLit = make([]sat.Lit, len(c.Latches))
	for i, la := range c.Latches {
		ch.stateVar[i] = ch.nv[la.Lit.Node()]
		ch.nextLit[i] = ch.enc.SatLit(ch.nv, la.Next)
	}
	ch.badLit = ch.enc.SatLit(ch.nv, c.Bad)
	ch.initVals = c.InitState()
	return ch.run()
}

func (ch *checker) newFrame() {
	ch.frameAct = append(ch.frameAct, ch.s.NewVar())
	ch.frames = append(ch.frames, nil)
}

// actLits returns activation assumptions for F_i (all levels >= i).
func (ch *checker) actLits(i int) []sat.Lit {
	var lits []sat.Lit
	for j := i; j < len(ch.frameAct); j++ {
		lits = append(lits, sat.MkLit(ch.frameAct[j], true))
	}
	return lits
}

// cubeContainsInit reports whether the initial state satisfies the cube.
func (ch *checker) cubeContainsInit(c Cube) bool {
	for _, l := range c {
		if ch.initVals[l.Idx] != l.Val {
			return false
		}
	}
	return true
}

// modelCube extracts the full current-state cube from the last model.
func (ch *checker) modelCube() Cube {
	cube := make(Cube, len(ch.stateVar))
	for i, v := range ch.stateVar {
		cube[i] = LatchLit{Idx: i, Val: ch.s.Model(v)}
	}
	return cube
}

// modelInputs extracts the input values from the last model.
func (ch *checker) modelInputs() []bool {
	ins := make([]bool, len(ch.c.Inputs))
	for i, in := range ch.c.Inputs {
		ins[i] = ch.s.Model(ch.nv[in.Node()])
	}
	return ins
}

// primedAssumps maps a state cube onto next-state assumption literals.
func (ch *checker) primedAssumps(c Cube) []sat.Lit {
	lits := make([]sat.Lit, len(c))
	for i, l := range c {
		n := ch.nextLit[l.Idx]
		if !l.Val {
			n = n.Neg()
		}
		lits[i] = n
	}
	return lits
}

// currentAssumps maps a state cube onto current-state assumption literals.
func (ch *checker) currentAssumps(c Cube) []sat.Lit {
	lits := make([]sat.Lit, len(c))
	for i, l := range c {
		lits[i] = sat.MkLit(ch.stateVar[l.Idx], l.Val)
	}
	return lits
}

// ternaryReduce generalizes a full state cube via three-valued simulation:
// a latch can be dropped (set to X) if, under the model's inputs, the
// successor still definitely satisfies every literal of the target cube
// (or the bad output stays definitely asserted when useBad is set).  The
// returned cube covers only states all of which reach the target.
func (ch *checker) ternaryReduce(cube Cube, inputs []bool, target Cube, useBad bool) Cube {
	nL := len(ch.c.Latches)
	st := make([]aig.Tern, nL)
	for _, l := range cube {
		st[l.Idx] = aig.FromBool(l.Val)
	}
	ins := make([]aig.Tern, len(inputs))
	for i, b := range inputs {
		ins[i] = aig.FromBool(b)
	}
	holds := func() bool {
		vals := ch.c.EvalTernary(st, ins)
		if useBad {
			return ch.c.LitTern(vals, ch.c.Bad) == aig.TernT
		}
		for _, l := range target {
			if ch.c.LitTern(vals, ch.c.Latches[l.Idx].Next) != aig.FromBool(l.Val) {
				return false
			}
		}
		return true
	}
	if !holds() {
		return cube // should not happen; keep the full cube
	}
	out := make(Cube, 0, len(cube))
	for i, l := range cube {
		st[l.Idx] = aig.TernX
		if holds() {
			ch.stats.TernShrunk++
			continue
		}
		st[l.Idx] = aig.FromBool(l.Val)
		out = append(out, cube[i])
	}
	return out
}

// addBlockedCube installs !cube in frames 1..level.
func (ch *checker) addBlockedCube(c Cube, level int) {
	ch.stats.BlockedCubes++
	ch.frames[level] = append(ch.frames[level], c)
	lits := make([]sat.Lit, 0, len(c)+1)
	lits = append(lits, sat.MkLit(ch.frameAct[level], false))
	for _, l := range c {
		lits = append(lits, sat.MkLit(ch.stateVar[l.Idx], !l.Val))
	}
	ch.s.AddClause(lits...)
}

// blockQuery asks SAT(F_{frame-1} ∧ !cube ∧ T ∧ cube').  On SAT the model
// holds a predecessor.  It returns the status and, on UNSAT, the subset of
// cube literals present in the core.
func (ch *checker) blockQuery(c Cube, frame int) (sat.Status, Cube) {
	ch.stats.Queries++
	ch.budget.Tick()
	// temporary clause !cube guarded by a one-shot activation variable
	tmp := ch.s.NewVar()
	lits := make([]sat.Lit, 0, len(c)+1)
	lits = append(lits, sat.MkLit(tmp, false))
	for _, l := range c {
		lits = append(lits, sat.MkLit(ch.stateVar[l.Idx], !l.Val))
	}
	ch.s.AddClause(lits...)

	assumps := ch.actLits(frame - 1)
	assumps = append(assumps, sat.MkLit(tmp, true))
	primed := ch.primedAssumps(c)
	assumps = append(assumps, primed...)
	st := ch.s.Solve(assumps...)

	var coreCube Cube
	if st == sat.Unsat {
		inCore := make(map[sat.Lit]bool)
		for _, l := range ch.s.Core() {
			inCore[l] = true
		}
		for i, pl := range primed {
			if inCore[pl] {
				coreCube = append(coreCube, c[i])
			}
		}
	}
	// retire the temporary clause
	ch.s.AddClause(sat.MkLit(tmp, false))
	return st, coreCube
}

// generalize shrinks a blocked cube, keeping it disjoint from Init and
// still blocked at the given frame.
func (ch *checker) generalize(c, coreCube Cube, frame int) Cube {
	g := coreCube
	if len(g) == 0 {
		g = c
	}
	ch.stats.CoreShrunk += int64(len(c) - len(g))
	if ch.cubeContainsInit(g) {
		// restore one literal of c that distinguishes it from init
		for _, l := range c {
			if ch.initVals[l.Idx] != l.Val {
				g = append(append(Cube{}, g...), l)
				sort.Slice(g, func(i, j int) bool { return g[i].Idx < g[j].Idx })
				break
			}
		}
	}
	if !ch.opts.StrongGeneralize {
		return g
	}
	// try dropping each literal with a re-query
	for i := 0; i < len(g) && len(g) > 1; {
		cand := make(Cube, 0, len(g)-1)
		cand = append(cand, g[:i]...)
		cand = append(cand, g[i+1:]...)
		if ch.cubeContainsInit(cand) {
			i++
			continue
		}
		st, _ := ch.blockQuery(cand, frame)
		if st == sat.Unsat {
			ch.stats.DropShrunk++
			g = cand
		} else {
			i++
		}
	}
	return g
}

// run executes the main PDR loop.
func (ch *checker) run() Result {
	// F_0 = Init: activation 0 forces every latch to its reset value, so
	// frame-1 blocking queries are made relative to the initial state.
	ch.newFrame()
	for i, v := range ch.initVals {
		ch.s.AddClause(sat.MkLit(ch.frameAct[0], false), sat.MkLit(ch.stateVar[i], v))
	}
	ch.newFrame() // F_1

	// 0-step check: can the initial state assert bad combinationally?
	ch.stats.Queries++
	ch.budget.Tick()
	assumps := make([]sat.Lit, 0, len(ch.initVals)+1)
	for i, v := range ch.initVals {
		assumps = append(assumps, sat.MkLit(ch.stateVar[i], v))
	}
	assumps = append(assumps, ch.badLit)
	if ch.s.Solve(assumps...) == sat.Sat {
		return Result{
			Verdict: Unsafe,
			Trace:   []Step{{State: append([]bool{}, ch.initVals...), Inputs: ch.modelInputs()}},
			Frames:  0,
			Stats:   ch.stats,
		}
	}

	k := 1
	for k < ch.opts.MaxFrames {
		// block all bad states reachable within F_k
		for {
			if ch.budget.Expired() {
				return Result{Verdict: Unknown, Frames: k, Stats: ch.stats}
			}
			ch.stats.Queries++
			ch.budget.Tick()
			assumps := append(ch.actLits(k), ch.badLit)
			if ch.s.Solve(assumps...) != sat.Sat {
				break
			}
			badInputs := ch.modelInputs()
			bad := ch.ternaryReduce(ch.modelCube(), badInputs, nil, true)
			ok, trace := ch.block(&obligation{cube: bad, frame: k, depth: 0, inputs: badInputs})
			if !ok {
				return Result{Verdict: Unsafe, Trace: trace, Frames: k, Stats: ch.stats}
			}
			if ch.stats.Obligations > maxObligations || ch.budget.Expired() {
				return Result{Verdict: Unknown, Frames: k, Stats: ch.stats}
			}
		}
		// an expired budget must not reach the fixpoint check below: a SAT
		// call aborted by Stop reads as "no more bad states" above
		if ch.budget.Expired() {
			return Result{Verdict: Unknown, Frames: k, Stats: ch.stats}
		}

		// propagation: push clauses forward; detect fixpoint
		ch.newFrame()
		for i := 1; i <= k; i++ {
			cubes := ch.frames[i]
			var kept []Cube
			for _, c := range cubes {
				st, _ := ch.blockQuery(c, i+1)
				if st == sat.Unsat {
					ch.addBlockedCube(c, i+1)
					ch.stats.Propagated++
				} else {
					kept = append(kept, c)
				}
			}
			ch.frames[i] = kept
			if len(kept) == 0 {
				// F_i == F_{i+1}: inductive invariant found
				inv := ch.collectInvariant(i + 1)
				return Result{Verdict: Safe, Invariant: inv, Frames: k, Stats: ch.stats}
			}
		}
		k++
	}
	return Result{Verdict: Unknown, Frames: k, Stats: ch.stats}
}

// collectInvariant gathers all cubes blocked at levels >= lvl.
func (ch *checker) collectInvariant(lvl int) []Cube {
	var inv []Cube
	for i := lvl; i < len(ch.frames); i++ {
		inv = append(inv, ch.frames[i]...)
	}
	return inv
}

// block discharges the obligation ob, recursively blocking predecessors.
// It returns false with a counterexample trace when an initial-state
// predecessor is reached.
func (ch *checker) block(root *obligation) (bool, []Step) {
	var q obligationQueue
	heap.Init(&q)
	heap.Push(&q, root)

	for q.Len() > 0 {
		ob := heap.Pop(&q).(*obligation)
		ch.stats.Obligations++
		ch.budget.Tick()
		if ch.stats.Obligations > maxObligations || ch.budget.Expired() {
			return true, nil // budget: surface as Unknown upstream
		}
		if ch.cubeContainsInit(ob.cube) {
			return false, ch.buildTrace(ob)
		}
		if ob.frame == 0 {
			// predecessor within Init (handled above for full cubes);
			// conservative: also a counterexample
			return false, ch.buildTrace(ob)
		}
		st, coreCube := ch.blockQuery(ob.cube, ob.frame)
		if st == sat.Sat {
			predInputs := ch.modelInputs()
			pred := ch.ternaryReduce(ch.modelCube(), predInputs, ob.cube, false)
			heap.Push(&q, &obligation{
				cube: pred, frame: ob.frame - 1, depth: ob.depth + 1,
				succ: ob, inputs: predInputs,
			})
			heap.Push(&q, ob) // re-try later
			continue
		}
		g := ch.generalize(ob.cube, coreCube, ob.frame)
		ch.addBlockedCube(g, ob.frame)
		// push the obligation forward to keep deep traces honest
		if ob.frame < len(ch.frames)-1 {
			ob.frame++
			heap.Push(&q, ob)
		}
	}
	return true, nil
}

// buildTrace reconstructs the counterexample by forward simulation from
// the initial state through the obligations' input vectors: cubes may be
// ternary-reduced, but the ternary guarantee ensures every concretization
// (in particular the simulated one) lands in the next cube.
func (ch *checker) buildTrace(ob *obligation) []Step {
	var steps []Step
	st := append([]bool{}, ch.initVals...)
	for o := ob; o != nil; o = o.succ {
		steps = append(steps, Step{State: st, Inputs: o.inputs})
		st, _ = ch.c.Step(st, o.inputs)
	}
	return steps
}
