package icp

import (
	"slices"

	"icpic3/internal/tnf"
)

// analyze performs 1-UIP conflict analysis at conflict level clevel
// (> nAssump).  It returns the learned clause, the asserting literal
// (negation of the UIP bound), the backjump level, and the clause's LBD
// (distinct decision levels among its literals).
//
// The learned clause is the negation of a set of trail bounds whose
// conjunction was shown contradictory; negation is relaxed for real
// variables (closed bounds), which keeps the clause implied by the system
// over the reals.  Literals implied by the rest of the clause through the
// implication graph are dropped (recursive clause minimization).
//
// Marks over trail indices use epoch-stamped arrays instead of a
// per-conflict map: bumping seenEpoch invalidates every stale stamp at
// once, so analysis allocates only when the trail outgrows the buffers.
func (s *Solver) analyze(cf *conflict, clevel int32) (tnf.Clause, tnf.Lit, int32, int32, bool) {
	s.newMarkEpoch()
	counter := 0
	lower := s.lowerBuf[:0]

	mark := func(a int32) {
		if a < 0 || s.seenStamp[a] == s.seenEpoch {
			return
		}
		s.seenStamp[a] = s.seenEpoch
		if e := &s.trail[a]; e.kind == reasonClause && e.cl >= 0 {
			s.bumpClauseAct(e.cl)
		}
		lv := s.trail[a].level
		switch {
		case lv == 0:
			// implied by the formula alone: contributes nothing
		case lv == clevel:
			counter++
		default:
			lower = append(lower, a)
		}
	}
	for _, a := range cf.ante {
		mark(a)
	}

	var uip int32 = -1
	if counter > 0 {
		idx := int32(len(s.trail)) - 1
		for {
			for idx >= 0 && (s.seenStamp[idx] != s.seenEpoch || s.trail[idx].level != clevel) {
				idx--
			}
			if idx < 0 {
				s.lowerBuf = lower[:0]
				return nil, tnf.Lit{}, 0, 0, false // should not happen
			}
			if counter == 1 {
				uip = idx
				break
			}
			e := &s.trail[idx]
			s.seenStamp[idx] = 0
			counter--
			for _, a := range s.anteOf(e) {
				mark(a)
			}
			idx--
		}
	} else {
		// conflict consists entirely of lower-level events: treat the
		// deepest one as the UIP
		var deepest int32 = -1
		var deepLv int32 = -1
		for i, a := range lower {
			if s.trail[a].level > deepLv {
				deepLv = s.trail[a].level
				deepest = int32(i)
			}
		}
		if deepest < 0 {
			s.lowerBuf = lower[:0]
			return nil, tnf.Lit{}, 0, 0, false // conflict at level 0
		}
		uip = lower[deepest]
		lower = append(lower[:deepest], lower[deepest+1:]...)
	}

	// Recursive clause minimization: drop events whose antecedent DAG
	// bottoms out in other marked events or root-level facts — their
	// negations are implied by the rest of the learned clause, so the
	// shorter clause is still implied by the system.  The marked set
	// ({uip} ∪ lower) only shrinks, which keeps every redundancy proof
	// valid: the implication DAG is acyclic toward smaller trail indices.
	if len(lower) > 0 {
		keep := lower[:0]
		for _, a := range lower {
			if s.litRedundant(a, 0) {
				s.seenStamp[a] = 0
				s.Stats.LitsMinimized++
				continue
			}
			keep = append(keep, a)
		}
		lower = keep
	}

	// LBD: distinct decision levels among the clause's literals (the
	// UIP's clevel plus the lower events').  O(n²) dedup on a short
	// slice beats allocating a set.
	lbd := int32(1)
	for i, a := range lower {
		lv := s.trail[a].level
		dup := lv == clevel
		for _, b := range lower[:i] {
			if s.trail[b].level == lv {
				dup = true
				break
			}
		}
		if !dup {
			lbd++
		}
	}

	assertLit := s.negLit(s.trail[uip].lit())
	// build the learned clause with per-(var,dir) weakest-literal dedup
	type key struct {
		v tnf.VarID
		d tnf.Dir
	}
	assertKey := key{assertLit.Var, assertLit.Dir}
	litMap := map[key]tnf.Lit{assertKey: assertLit}
	// order records first appearance so the learned clause is built in
	// deterministic trail order, never map-iteration order: literal order
	// steers watch selection and propagation, so a randomized order would
	// make verdict paths diverge between identical runs.
	order := []key{assertKey}
	btLevel := int32(0)
	for _, a := range lower {
		e := &s.trail[a]
		if e.level > btLevel {
			btLevel = e.level
		}
		l := s.negLit(e.lit())
		k := key{l.Var, l.Dir}
		if prev, ok := litMap[k]; ok {
			// keep the weaker (more easily satisfied) literal; on equal
			// bounds the non-strict one is weaker
			if l.Dir == tnf.DirLe {
				if l.B > prev.B || (l.B == prev.B && !l.Strict) {
					litMap[k] = l
				}
			} else if l.B < prev.B || (l.B == prev.B && !l.Strict) {
				litMap[k] = l
			}
		} else {
			litMap[k] = l
			order = append(order, k)
		}
	}
	learnt := make(tnf.Clause, 0, len(litMap))
	for _, k := range order {
		learnt = append(learnt, litMap[k])
	}
	assertLit = learnt[0]
	s.lowerBuf = lower[:0]
	return learnt, assertLit, btLevel, lbd, true
}

// litRedundant reports whether trail event a is implied by the marked
// events and root facts: every antecedent path reaches a marked event,
// level 0, or the initial domain.  Decisions are never redundant.
// Memoized per conflict through redStamp/redVal (seenEpoch discipline);
// the depth cap bounds recursion on pathological antecedent chains.
func (s *Solver) litRedundant(a int32, depth int) bool {
	if depth > 64 {
		return false
	}
	e := &s.trail[a]
	if e.kind == reasonDecision {
		return false
	}
	for _, b := range s.anteOf(e) {
		if b < 0 {
			continue
		}
		if s.trail[b].level == 0 || s.seenStamp[b] == s.seenEpoch {
			continue
		}
		if s.redStamp[b] == s.seenEpoch {
			if s.redVal[b] {
				continue
			}
			return false
		}
		ok := s.litRedundant(b, depth+1)
		s.redStamp[b] = s.seenEpoch
		s.redVal[b] = ok
		if !ok {
			return false
		}
	}
	return true
}

// newMarkEpoch sizes the epoch-stamped mark arrays to the trail and
// starts a fresh epoch, invalidating every earlier mark at once.
func (s *Solver) newMarkEpoch() {
	if n := len(s.trail); len(s.seenStamp) < n {
		grow := n - len(s.seenStamp)
		s.seenStamp = append(s.seenStamp, make([]int64, grow)...)
		s.redStamp = append(s.redStamp, make([]int64, grow)...)
		s.redVal = append(s.redVal, make([]bool, grow)...)
	}
	s.seenEpoch++
}

// finalCore computes a subset of the current assumptions sufficient for
// the conflict, by tracing antecedents back to assumption decisions.
// Visited events are marked with the analyze epoch stamps and the
// work stack is reused, so the trace allocates only the core itself.
func (s *Solver) finalCore(ante []int32) []tnf.Lit {
	s.newMarkEpoch()
	stack := append(s.coreStack[:0], ante...)
	var core []tnf.Lit
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a < 0 || s.seenStamp[a] == s.seenEpoch {
			continue
		}
		s.seenStamp[a] = s.seenEpoch
		e := &s.trail[a]
		if e.level == 0 {
			continue // formula-implied
		}
		if e.kind == reasonDecision {
			if int(e.level) >= 1 && int(e.level) <= s.nAssump {
				if l := s.assumptions[e.level-1]; !slices.Contains(core, l) {
					core = append(core, l)
				}
			}
			continue
		}
		stack = append(stack, s.anteOf(e)...)
	}
	s.coreStack = stack
	return core
}
