package ic3icp

import (
	"icpic3/internal/tnf"
)

// Syntactic frame-clause subsumption.
//
// Frames are delta-encoded: a cube at level L contributes its guarded
// clause ¬c to every F_i with i <= L (actLits(i) activates all levels
// >= i).  A new cube c installed at level L therefore dominates any
// existing cube e at level M <= L whose box is contained in c's box:
// ¬c implies ¬e, and c is active in every query e is active in.  Such e
// can be dropped from the frame bookkeeping — every effective F_i stays
// semantically identical — so clause pushing, invariant export, and the
// F_∞ probes iterate shrinking frames.  (The solver-side guarded clause
// of e is merely redundant; the solver's own reduceDB retires it once
// its one-shot activation pattern makes it root-satisfied or unused.)
//
// The empty-frame fixpoint test stays valid and may even fire earlier: a
// cube removed from frames[i] was covered either at a level >= i+1 (then
// F_i == F_{i+1} is unaffected) or by another cube still at level i
// (then frames[i] is not empty).  F_∞ cubes are active everywhere and
// subsume at every level.

// litImplies reports whether bound literal a implies bound literal b for
// every valuation (same variable, same direction, a at least as tight).
func litImplies(a, b tnf.Lit) bool {
	if a.Var != b.Var || a.Dir != b.Dir {
		return false
	}
	if a.Dir == tnf.DirLe {
		return a.B < b.B || (a.B == b.B && (a.Strict || !b.Strict))
	}
	return a.B > b.B || (a.B == b.B && (a.Strict || !b.Strict))
}

// cubeSubsumes reports whether cube c's box contains cube e's box:
// every literal of c must be implied by some literal of e.  Then
// blocking c also blocks e.
func cubeSubsumes(c, e icpCube) bool {
	for _, lc := range c {
		implied := false
		for _, le := range e {
			if litImplies(le, lc) {
				implied = true
				break
			}
		}
		if !implied {
			return false
		}
	}
	return true
}

// subsumeInFrame removes every cube of frames[level] subsumed by c,
// compacting in place (order preserved — run-to-run determinism
// depends on frame order).  Returns the number removed.
func (ch *checker) subsumeInFrame(c icpCube, level int) int {
	fr := ch.frames[level]
	out := 0
	for _, e := range fr {
		if cubeSubsumes(c, e.cube) {
			continue
		}
		fr[out] = e
		out++
	}
	removed := len(fr) - out
	if removed > 0 {
		ch.frames[level] = fr[:out]
	}
	return removed
}

// subsumeFrames sweeps all frame levels a new cube dominates: levels
// 1..hi for a cube installed at level hi, or every level for an F_∞
// promotion (hi < 0).  Counts land in both the checker stats and the
// main solver's Stats so the determinism suites can assert them.
func (ch *checker) subsumeFrames(c icpCube, hi int) {
	if hi < 0 || hi >= len(ch.frames) {
		hi = len(ch.frames) - 1
	}
	removed := 0
	for m := 1; m <= hi; m++ {
		removed += ch.subsumeInFrame(c, m)
	}
	if removed > 0 {
		ch.stats["subsumed"] += int64(removed)
		ch.main.Stats.SubsumedFrameClauses += int64(removed)
	}
}
