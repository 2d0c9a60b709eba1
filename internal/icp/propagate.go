package icp

import (
	"math"

	"icpic3/internal/interval"
	"icpic3/internal/tnf"
)

// propagate runs clause unit propagation and constraint contraction to a
// fixed point, returning a conflict if one arises.
func (s *Solver) propagate() *conflict {
	// a conflict stashed by the pre-SAT exhaustive check re-enters the
	// normal analysis path here
	if cf := s.pendingCf; cf != nil {
		s.pendingCf = nil
		return cf
	}
	// seed clauses added since the last call (they may be unit or false
	// already under the current state)
	if len(s.newClause) > 0 {
		pending := s.newClause
		s.newClause = nil
		if s.level() > 0 {
			// formula clauses seeded above the root (added between Solves
			// while an assumption prefix was retained) keep a deferred
			// level-0 replay entry: their unit consequences must become
			// permanent root facts on the next full backtrack.  Learned
			// clauses are exempt — they are implied and need no root seed.
			for _, ci := range pending {
				if !s.clauses[ci].learned {
					s.deferredRoot = append(s.deferredRoot, ci)
				}
			}
		}
		for _, ci := range pending {
			if cf := s.checkClause(ci); cf != nil {
				return cf
			}
		}
	}
	// A single fixpoint can run long on hard contractions; poll the Stop
	// hook so the budget (timeout, cancellation or stall) can abort
	// mid-propagation instead of waiting for the search loop's
	// per-iteration poll.  On stop the partial (sound) contraction is
	// abandoned via s.stopped and the caller reports Unknown.
	sincePoll := 0
	for {
		sincePoll++
		if sincePoll >= 256 {
			sincePoll = 0
			if s.opts.Stop != nil && s.opts.Stop() {
				s.stopped = true
				return nil
			}
		}
		progress := false
		// scan new trail events for clause propagation
		for s.propHead < int32(len(s.trail)) {
			ei := s.propHead
			s.propHead++
			progress = true
			if cf := s.propagateWatch(ei); cf != nil {
				return cf
			}
		}
		// contract one constraint from the queue
		if len(s.conQueue) > 0 {
			ci := s.conQueue[len(s.conQueue)-1]
			s.conQueue = s.conQueue[:len(s.conQueue)-1]
			s.inQueue[ci] = false
			progress = true
			if cf := s.revise(ci); cf != nil {
				return cf
			}
		}
		if !progress {
			return nil
		}
	}
}

// propagateWatch visits the watch entries on the falsifiable side of the
// trail event at ei: a lo-raising event can only falsify (x <= c)
// watches, a hi-lowering event only (x >= c) watches.  An entry whose
// guard survives the bound move costs one comparison and leaves its
// clause untouched; only a fallen guard loads the clause, whose fallen
// watch then tries to relocate to another non-false literal, and only
// when none exists does the clause go through full unit/conflict
// handling.
func (s *Solver) propagateWatch(ei int32) *conflict {
	v, side := s.trail[ei].v, s.trail[ei].side
	dir := tnf.DirLe
	if side == sideHi {
		dir = tnf.DirGe
	}
	ws := s.watchList(v, dir)
	x, open := s.fallAxis(v, side)
	// The list is compacted in place while iterating: entries whose
	// clause moved every watch off this (var, dir) list, or is satisfied
	// at the root, are dropped.  Relocations never append to this list (a
	// same-list replacement keeps the existing entry), so the iteration
	// bound stays valid.
	list := *ws
	out := 0
	for k := 0; k < len(list); k++ {
		w := list[k]
		if !w.fallen(x, open) {
			if out != k { // store only once compaction has started
				list[out] = w
			}
			out++
			continue
		}
		w, keepEntry, cf := s.visitWatched(w, v, dir)
		if keepEntry {
			list[out] = w
			out++
		}
		if cf != nil {
			s.Stats.WatchVisits += int64(k + 1)
			out += copy(list[out:], list[k+1:])
			*ws = list[:out]
			return cf
		}
		// a unit assertion may have moved v's bound further
		x, open = s.fallAxis(v, side)
	}
	s.Stats.WatchVisits += int64(len(list))
	*ws = list[:out]
	return nil
}

// fallAxis returns the endpoint of v that events on side move, mapped
// onto the falling axis of watcher guards: lo for lo-raising events,
// -hi for hi-lowering ones, with its openness.
func (s *Solver) fallAxis(v tnf.VarID, side int8) (float64, bool) {
	if side == sideLo {
		return s.lo[v], s.loOpen[v]
	}
	return -s.hi[v], s.hiOpen[v]
}

// visitWatched handles the clause of entry w after an event on v fell
// the entry's guard on the (v, dir) watch list.  Returns the entry to
// keep (its guard rebuilt if a watch moved), whether the entry should
// remain on this list, and a conflict if the clause is fully falsified.
func (s *Solver) visitWatched(w watcher, v tnf.VarID, dir tnf.Dir) (watcher, bool, *conflict) {
	ci := w.ci
	c := &s.clauses[ci]
	if c.w1 < 0 {
		// single-literal clause: re-check directly (conflict or re-assert)
		return w, true, s.checkClause(ci)
	}
	moved := false
	var cf *conflict
	for slot := 0; slot < 2 && cf == nil; slot++ {
		wi := c.w0
		oi := c.w1
		if slot == 1 {
			wi, oi = c.w1, c.w0
		}
		wl := c.lits[wi]
		if wl.Var != v || wl.Dir != dir || !s.litFalse(wl) {
			continue
		}
		ol := c.lits[oi]
		if s.litTrue(ol) {
			if s.trueAtRoot(ol) {
				// satisfied for good: no visit of this list can do
				// anything for the clause again, so detach it here
				// (reduceDB deletes it later)
				return w, false, nil
			}
			// blocker: the clause is satisfied; the false watch stays.
			// Sound lazily: ol became true no later than wl fell, so any
			// backtrack keeping wl false keeps ol true.
			continue
		}
		// relocate this watch to a non-false, non-watched literal
		found := int32(-1)
		for i := range c.lits {
			ii := int32(i)
			if ii == c.w0 || ii == c.w1 {
				continue
			}
			if !s.litFalse(c.lits[i]) {
				found = ii
				break
			}
		}
		if found >= 0 {
			if slot == 0 {
				c.w0 = found
			} else {
				c.w1 = found
			}
			moved = true
			// one entry per (clause, list): a move within this list keeps
			// the visited entry (its guard is rebuilt below), a move
			// onto the other watch's list shares that watch's entry
			nl := c.lits[found]
			switch {
			case nl.Var == v && nl.Dir == dir:
			case nl.Var == ol.Var && nl.Dir == ol.Dir:
				s.tightenGuard(nl, ci)
			default:
				s.addWatch(nl, guardOf(nl, ci))
			}
			continue
		}
		// no replacement: the clause is unit on the other watch (assert
		// it) or fully false (conflict); checkClause handles both.  The
		// false watch stays listed — its falsifying event is the current
		// one, so any backtrack past it restores the watch invariant.
		cf = s.checkClause(ci)
	}
	if !moved {
		// the watch that fell the guard is still on this list
		return w, true, cf
	}
	l0, l1 := c.lits[c.w0], c.lits[c.w1]
	keep := (l0.Var == v && l0.Dir == dir) || (l1.Var == v && l1.Dir == dir)
	if keep {
		w = s.watchEntry(ci, v, dir)
	}
	return w, keep, cf
}

// checkAllClauses runs the exhaustive per-clause check over the whole
// database — the pre-SAT safety net for lazily watched propagation.  It
// reports whether any bound was asserted and the first conflict found.
func (s *Solver) checkAllClauses() (bool, *conflict) {
	mark := len(s.trail)
	for ci := range s.clauses {
		if cf := s.checkClause(int32(ci)); cf != nil {
			return true, cf
		}
	}
	return len(s.trail) > mark, nil
}

// checkClause examines clause ci: skips satisfied clauses, reports a
// conflict if all literals are false, propagates a unit literal otherwise.
func (s *Solver) checkClause(ci int32) *conflict {
	c := &s.clauses[ci]
	unitIdx := -1
	for i, l := range c.lits {
		if s.litTrue(l) {
			return nil
		}
		if !s.litFalse(l) {
			if unitIdx >= 0 {
				return nil // two non-false literals: nothing to do
			}
			unitIdx = i
		}
	}
	if unitIdx < 0 {
		// all false: conflict, antecedents are the falsifying events
		buf := s.cfAnteBuf[:0]
		for _, l := range c.lits {
			buf = append(buf, s.falsifyingEvent(l))
		}
		s.cfAnteBuf = buf
		s.cfScratch.ante = buf
		return &s.cfScratch
	}
	// unit: assert lits[unitIdx].  Scratch buffer: assertLit/setBound
	// copies it if (and only if) a trail event is recorded.
	ante := s.anteScratch[:0]
	for i, l := range c.lits {
		if i == unitIdx {
			continue
		}
		ante = append(ante, s.falsifyingEvent(l))
	}
	s.anteScratch = ante
	cf, _ := s.assertLit(c.lits[unitIdx], reasonClause, ci, -1, ante)
	return cf
}

// dom returns the current interval of v.
func (s *Solver) dom(v tnf.VarID) interval.Interval {
	return interval.New(s.lo[v], s.hi[v])
}

// revise runs HC4-revise on constraint ci: forward evaluation onto Z and
// backward projections onto the arguments, applying any tightenings.
//
// Only about half of all calls move a bound, so the antecedent snapshot
// every recorded event and conflict of the call cites (the latest events
// of the involved variables) is built lazily, right before the first
// setBound or conflict that can use it (anteSnap).  It is still the
// state at entry: only those setBound calls record events, so none
// precedes the build.
func (s *Solver) revise(ci int32) *conflict {
	s.Stats.Revisions++
	c := s.cons[ci]
	a := anteSnap{vars: [3]tnf.VarID{c.Z, c.X, c.Y}, n: 2}

	// Linear operations propagate endpoint openness exactly (see
	// openbounds.go); everything else uses closed outward-rounded interval
	// arithmetic, which is sound but strictness-lossy.
	switch c.Op {
	case tnf.ConAdd: // z = x + y
		a.n = 3
		zl, zh := s.loEpt(int32(c.Z)), s.hiEpt(int32(c.Z))
		xl, xh := s.loEpt(int32(c.X)), s.hiEpt(int32(c.X))
		yl, yh := s.loEpt(int32(c.Y)), s.hiEpt(int32(c.Y))
		if cf := s.applyContractionE(c.Z, sumLo(xl, yl), sumHi(xh, yh), ci, &a); cf != nil {
			return cf
		}
		if cf := s.applyContractionE(c.X, subLo(zl, yh), subHi(zh, yl), ci, &a); cf != nil {
			return cf
		}
		return s.applyContractionE(c.Y, subLo(zl, xh), subHi(zh, xl), ci, &a)
	case tnf.ConNeg: // z = -x
		zl, zh := s.loEpt(int32(c.Z)), s.hiEpt(int32(c.Z))
		xl, xh := s.loEpt(int32(c.X)), s.hiEpt(int32(c.X))
		if cf := s.applyContractionE(c.Z, negOf(xh), negOf(xl), ci, &a); cf != nil {
			return cf
		}
		return s.applyContractionE(c.X, negOf(zh), negOf(zl), ci, &a)
	case tnf.ConMul: // z = x * y (forward openness; backward closed)
		a.n = 3
		z, x, y := s.dom(c.Z), s.dom(c.X), s.dom(c.Y)
		xl, xh := s.loEpt(int32(c.X)), s.hiEpt(int32(c.X))
		yl, yh := s.loEpt(int32(c.Y)), s.hiEpt(int32(c.Y))
		zlo, zhi := mulCorners(xl, xh, yl, yh)
		if cf := s.applyContractionE(c.Z, zlo, zhi, ci, &a); cf != nil {
			return cf
		}
		if cf := s.applyContraction(c.X, interval.InvMulX(z, y), ci, &a); cf != nil {
			return cf
		}
		return s.applyContraction(c.Y, interval.InvMulX(z, x), ci, &a)
	}

	z, x := s.dom(c.Z), s.dom(c.X)
	var y interval.Interval
	binary := c.Op == tnf.ConMin || c.Op == tnf.ConMax
	if binary {
		a.n = 3
		y = s.dom(c.Y)
	}

	var nz, nx, ny interval.Interval
	switch c.Op {
	case tnf.ConMin: // z = min(x, y)
		nz = x.Min(y)
		nx, ny = invMinMax(z, x, y, true)
	case tnf.ConMax:
		nz = x.Max(y)
		nx, ny = invMinMax(z, x, y, false)
	case tnf.ConAbs:
		nz = x.Abs()
		nx = interval.InvAbs(z, x)
	case tnf.ConPow:
		nz = x.PowInt(c.N)
		nx = interval.InvPowInt(z, x, c.N)
	case tnf.ConSqrt:
		nz = x.Sqrt()
		nx = interval.InvSqrt(z)
	case tnf.ConExp:
		nz = x.Exp()
		nx = interval.InvExp(z)
	case tnf.ConLog:
		nz = x.Log()
		nx = interval.InvLog(z)
	case tnf.ConSin:
		nz = x.Sin()
		nx = interval.InvSin(z, x)
	case tnf.ConCos:
		nz = x.Cos()
		nx = interval.InvCos(z, x)
	case tnf.ConTan:
		nz = x.Tan()
		nx = interval.InvTan(z, x)
	case tnf.ConAtan:
		nz = x.Atan()
		nx = interval.InvAtan(z)
	case tnf.ConTanh:
		nz = x.Tanh()
		nx = interval.InvTanh(z)
	}

	if cf := s.applyContraction(c.Z, nz, ci, &a); cf != nil {
		return cf
	}
	if cf := s.applyContraction(c.X, nx, ci, &a); cf != nil {
		return cf
	}
	if binary {
		if cf := s.applyContraction(c.Y, ny, ci, &a); cf != nil {
			return cf
		}
	}
	return nil
}

// anteSnap is revise's antecedent snapshot, built on first need by
// snapAnte into the solver's anteScratch buffer.  setBound copies the
// buffer when it records an event, so a call that moves no bound
// allocates nothing, and one whose pre-checks rule out every move
// builds nothing.
type anteSnap struct {
	vars  [3]tnf.VarID // Z, X, Y of the constraint
	n     int8         // how many of vars the operator involves
	built bool
}

// snapAnte fills s.anteScratch with the latest lo/hi events of a's
// variables, once per revise call.
func (s *Solver) snapAnte(a *anteSnap) {
	if a.built {
		return
	}
	a.built = true
	ante := s.anteScratch[:0]
	for _, v := range a.vars[:a.n] {
		if e := s.lastLoEv[v]; e >= 0 {
			ante = append(ante, e)
		}
		if e := s.lastHiEv[v]; e >= 0 {
			ante = append(ante, e)
		}
	}
	s.anteScratch = ante
}

// invMinMax projects z = min(x,y) (isMin) or z = max(x,y) onto x and y.
func invMinMax(z, x, y interval.Interval, isMin bool) (nx, ny interval.Interval) {
	if isMin {
		// x >= z.Lo always; if y cannot achieve the min (y.Lo > z.Hi),
		// x must equal z.
		nx = x.Intersect(interval.New(z.Lo, posInf()))
		if y.Lo > z.Hi {
			nx = nx.Intersect(z)
		}
		ny = y.Intersect(interval.New(z.Lo, posInf()))
		if x.Lo > z.Hi {
			ny = ny.Intersect(z)
		}
		return nx, ny
	}
	nx = x.Intersect(interval.New(negInf(), z.Hi))
	if y.Hi < z.Lo {
		nx = nx.Intersect(z)
	}
	ny = y.Intersect(interval.New(negInf(), z.Hi))
	if x.Hi < z.Lo {
		ny = ny.Intersect(z)
	}
	return nx, ny
}

func posInf() float64 { return math.Inf(1) }
func negInf() float64 { return math.Inf(-1) }

// applyContractionE applies endpoint tightenings carrying openness flags.
func (s *Solver) applyContractionE(v tnf.VarID, lo, hi ept, ci int32, a *anteSnap) *conflict {
	if lo.v > hi.v {
		// the projection itself is empty: conflict regardless of progress
		s.snapAnte(a)
		return s.scratchConflict(s.anteScratch)
	}
	// Neither endpoint tightens: both setBound calls below would be
	// no-ops.  The test is setBound's own progress test on the raw value,
	// so integer variables skip it — their rounding can move a bound the
	// raw value does not reach (a non-integral declared domain).
	if !s.vars[v].Integer &&
		!(lo.v > s.lo[v] || (lo.v == s.lo[v] && lo.open && !s.loOpen[v])) &&
		!(hi.v < s.hi[v] || (hi.v == s.hi[v] && hi.open && !s.hiOpen[v])) {
		return nil
	}
	s.snapAnte(a)
	threshold := s.contractionThreshold(s.dom(v))
	if cf, applied := s.setBound(v, sideLo, lo.v, lo.open, threshold, reasonConstraint, -1, ci, s.anteScratch); cf != nil {
		return cf
	} else if applied {
		s.Stats.Contractions++
	}
	if cf, applied := s.setBound(v, sideHi, hi.v, hi.open, threshold, reasonConstraint, -1, ci, s.anteScratch); cf != nil {
		return cf
	} else if applied {
		s.Stats.Contractions++
	}
	return nil
}

// applyContraction intersects v's domain with nd and applies the resulting
// bound tightenings with constraint ci as the reason.
func (s *Solver) applyContraction(v tnf.VarID, nd interval.Interval, ci int32, a *anteSnap) *conflict {
	cur := s.dom(v)
	nd = cur.Intersect(nd)
	if nd.IsEmpty() {
		// empty intersection: conflict regardless of progress thresholds
		s.snapAnte(a)
		return s.scratchConflict(s.anteScratch)
	}
	raise, lower := nd.Lo > cur.Lo, nd.Hi < cur.Hi
	if !raise && !lower {
		return nil
	}
	s.snapAnte(a)
	threshold := s.contractionThreshold(cur)
	if raise {
		if cf, applied := s.setBound(v, sideLo, nd.Lo, false, threshold, reasonConstraint, -1, ci, s.anteScratch); cf != nil {
			return cf
		} else if applied {
			s.Stats.Contractions++
		}
	}
	if lower {
		if cf, applied := s.setBound(v, sideHi, nd.Hi, false, threshold, reasonConstraint, -1, ci, s.anteScratch); cf != nil {
			return cf
		} else if applied {
			s.Stats.Contractions++
		}
	}
	return nil
}

// contractionThreshold computes the minimal progress demanded for a
// contraction of a domain of width w: 5% of w, and at least Eps/8.
func (s *Solver) contractionThreshold(cur interval.Interval) float64 {
	minProgress := s.opts.Eps / 8
	w := cur.Width()
	if w == 0 {
		return minProgress
	}
	t := 0.05 * w
	if t < minProgress || t != t /* NaN */ {
		t = minProgress
	}
	if t > 1e6 { // unbounded domains: any finite bound is progress
		t = 1e6
	}
	return t
}
