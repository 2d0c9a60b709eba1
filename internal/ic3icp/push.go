package ic3icp

import "icpic3/internal/icp"

// Triggered clause pushing.
//
// The forward-propagation phase of IC3 asks, for every *pending* clause
// ¬c in every frame F_i, the consecution query SAT?(F_i ∧ ¬c ∧ T ∧ c')
// that blocking asks too, on the same main solver (consecution in
// ic3icp.go).  Cubes whose last push failed are dormant until a trigger
// re-arms them (see trigger.go), so a sweep touches only clauses whose
// answer could have changed.  Within a frame the results are merged at
// a barrier in clause order: a clause pushed to F_{i+1} is guarded by
// act_{i+1}, which every F_i query already assumes, so installing it
// mid-frame would not change a later answer in that frame.

// pushResult is one consecution answer: pushed (UNSAT), unknown
// (budget — the cube stays pending), or failed with a blocking witness.
// A pushed result the solver proved (solved) carries the cube-literal
// subset of the assumption core, stored into the consecution memo at
// the frame barrier; a memo-served one is not stored again.
type pushResult struct {
	pushed  bool
	solved  bool
	unknown bool
	witness icpCube
	core    icpCube
}

// pushFrames propagates blocked cubes forward through frames 1..k.
// It returns (i, true) when F_i became equal to F_{i+1} — the inductive
// invariant case — and (0, false) otherwise.
func (ch *checker) pushFrames(k int) (int, bool) {
	total := 0
	for i := 1; i <= k; i++ {
		total += len(ch.frames[i])
	}
	if total == 0 {
		return 1, true // F_1 is already empty: trivially F_1 == F_2
	}

	if ch.pushStalled {
		// Safety valve for candidate-SAT witnesses (see trigger.go): the
		// previous sweep pushed nothing while skips were in effect, so
		// re-attempt everything once — any fixpoint the untriggered
		// algorithm reaches is then found at most one iteration later.
		for i := 1; i <= k; i++ {
			for _, fc := range ch.frames[i] {
				fc.pending = true
			}
		}
		ch.pushStalled = false
		ch.stats["pushResweeps"]++
	}

	totalPushed, totalSkipped := 0, 0
	for i := 1; i <= k; i++ {
		frame := ch.frames[i]
		if len(frame) == 0 {
			return i, true
		}
		var attempts []int // indices of pending cubes, in frame order
		for j, fc := range frame {
			if fc.pending {
				attempts = append(attempts, j)
			}
		}
		ch.stats["pushAttempts"] += int64(len(attempts))
		ch.stats["pushSkippedTriggered"] += int64(len(frame) - len(attempts))
		totalSkipped += len(frame) - len(attempts)
		if len(attempts) == 0 {
			continue
		}
		// An attempt whose (cube, target) was already proved UNSAT is
		// memo-served.  Fresh answers are stored only at the barrier, so
		// no store of this frame can evict an entry a later attempt of
		// the frame would hit.
		results := make([]pushResult, len(attempts))
		for a, j := range attempts {
			c := frame[j].cube
			if _, ok := ch.memoLookup(c, i+1); ok {
				results[a] = pushResult{pushed: true}
				continue
			}
			ch.tick()
			r, core := ch.consecution(c, i+1)
			switch r.Status {
			case icp.StatusUnsat:
				results[a] = pushResult{pushed: true, solved: true, core: core}
			case icp.StatusUnknown:
				results[a] = pushResult{unknown: true}
			default:
				results[a] = pushResult{witness: ch.boxCube(r.Box, ch.curIDs)}
			}
		}

		// Barrier merge in clause order.  Trigger state first, then the
		// survivors are installed before the pushed cubes are re-added:
		// installPushed's subsumption sweep edits ch.frames[i] in place
		// and must see the post-push frame, not the pre-push slice still
		// being iterated.
		pushedIdx := make([]bool, len(frame))
		for a, j := range attempts {
			fc := frame[j]
			switch {
			case results[a].pushed:
				pushedIdx[j] = true
				if results[a].solved {
					ch.memoStore(fc.cube, i+1, results[a].core)
				}
			case results[a].unknown:
				// stays pending: retried next sweep
			default:
				fc.pending = false
				fc.witness = results[a].witness
			}
		}
		var kept []*frameCube
		for j, fc := range frame {
			if !pushedIdx[j] {
				kept = append(kept, fc)
			}
		}
		ch.frames[i] = kept
		for a, j := range attempts {
			if results[a].pushed {
				ch.installPushed(frame[j], i+1)
				totalPushed++
				ch.stats["propagated"]++
			}
		}
		// subsumption during the pushed-adds can empty the frame even when
		// some cubes failed their consecution query this round
		if len(ch.frames[i]) == 0 {
			return i, true
		}
	}
	if totalPushed == 0 && totalSkipped > 0 {
		ch.pushStalled = true
	}
	return 0, false
}

// installPushed moves a cube that passed consecution up to the given
// level.  Only F_level is newly strengthened — every lower frame
// already carried the clause under the delta encoding — so triggers
// fire for that frame alone; the cube itself becomes pending again at
// its new home.
func (ch *checker) installPushed(fc *frameCube, level int) {
	ch.subsumeFrames(fc.cube, level)
	fc.pending, fc.witness = true, nil
	ch.frames[level] = append(ch.frames[level], fc)
	ch.appendOp(durableOp{level: level, body: ch.negCube(fc.cube)})
	ch.markTriggered(fc.cube, level, level)
}
