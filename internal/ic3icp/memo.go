package ic3icp

import (
	"math"
	"sort"
)

// Consecution memoization (DESIGN.md §17).
//
// Every blocking and pushing query asks the same shape of question —
// SAT?(F_{frame-1} ∧ ¬c ∧ T ∧ c') — against frame content that only
// ever grows: durable ops append frame clauses, F_∞ clauses, and
// activation variables, and nothing is ever removed (subsumption only
// retires bookkeeping records; retired one-shot activation variables
// and solver rebuilds replay the same op log and leave the semantics
// untouched).  An UNSAT answer is therefore monotone-stable: once
// ¬c ∧ T ∧ c' is refuted under the frame content of op-log generation
// g, it stays refuted under every generation g' >= g, because the
// later query assumes a superset of the activation literals over a
// superset of the clauses.  SAT answers enjoy no such stability (a new
// frame clause can refute the witness), so only UNSAT results are
// cached.
//
// The cache is a fixed-size direct-mapped table keyed by the cube's
// canonical (order-independent) literal hash plus the target frame.
// Entries carry no generation stamp: the op log is append-only
// (appendOp is its one writer), so every lookup happens at a generation
// at or above the one its entry was proved at, and every entry is
// valid.  Entries store the canonical cube itself, so a hash collision
// degrades to a miss, never to a wrong answer.  The
// IC3 loop is sequential, so the hit sequence — and with it the solver
// lineage — is a deterministic function of the frame evolution alone.

// memoSize is the number of direct-mapped cache slots (power of two).
const memoSize = 4096

// memoEntry is one cached UNSAT consecution answer.
type memoEntry struct {
	hash  uint64
	frame int32 // target frame of the query
	cube  icpCube
	core  icpCube // cube-literal subset sufficient for UNSAT
}

// consecMemo is the per-run consecution cache.  Not safe for concurrent
// use: only the sequential IC3 loop may touch it.
type consecMemo struct {
	entries []memoEntry
	scratch icpCube // canonicalization buffer, valid until the next call
}

func newConsecMemo() *consecMemo {
	return &consecMemo{entries: make([]memoEntry, memoSize)}
}

// canon returns the cube sorted into canonical literal order in the
// memo's scratch buffer.  Generalization reorders and rewrites cube
// literals, so the canonical form — not the query form — is what makes
// semantically identical cubes collide in the table.
func (m *consecMemo) canon(c icpCube) icpCube {
	m.scratch = append(m.scratch[:0], c...)
	s := m.scratch
	sort.Slice(s, func(i, j int) bool {
		if s[i].Var != s[j].Var {
			return s[i].Var < s[j].Var
		}
		if s[i].Dir != s[j].Dir {
			return s[i].Dir < s[j].Dir
		}
		if s[i].B != s[j].B {
			return s[i].B < s[j].B
		}
		return !s[i].Strict && s[j].Strict
	})
	//lint:allow scratchalias documented loan: consumed by lookup/store before the next canon call
	return s
}

// hashCube is FNV-1a over the canonical literals plus the target frame.
func hashCube(canon icpCube, frame int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix(uint64(frame))
	for _, l := range canon {
		mix(uint64(l.Var))
		mix(uint64(l.Dir))
		mix(math.Float64bits(l.B))
		if l.Strict {
			mix(1)
		} else {
			mix(0)
		}
	}
	return h
}

func cubesEqual(a, b icpCube) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup returns the cached core subset for an UNSAT answer to the
// consecution query (c, frame).  The returned core aliases the entry;
// callers treat it as read-only (generalize copies before mutating).
func (m *consecMemo) lookup(c icpCube, frame int) (icpCube, bool) {
	canon := m.canon(c)
	h := hashCube(canon, frame)
	e := &m.entries[h&(memoSize-1)]
	if e.cube == nil || e.hash != h || e.frame != int32(frame) {
		return nil, false
	}
	if !cubesEqual(e.cube, canon) {
		return nil, false
	}
	return e.core, true
}

// store records an UNSAT consecution answer.  Collisions overwrite:
// the table is a bounded cache, not a log, and dropping an entry only
// costs a future re-query.
func (m *consecMemo) store(c icpCube, frame int, core icpCube) {
	canon := m.canon(c)
	h := hashCube(canon, frame)
	e := &m.entries[h&(memoSize-1)]
	*e = memoEntry{
		hash:  h,
		frame: int32(frame),
		cube:  append(icpCube(nil), canon...),
		core:  append(icpCube(nil), core...),
	}
}

// memoLookup consults the consecution cache for the sequential query
// paths, maintaining the hit/miss counters.
func (ch *checker) memoLookup(c icpCube, frame int) (icpCube, bool) {
	core, ok := ch.memo.lookup(c, frame)
	if ok {
		ch.stats["consecCacheHits"]++
	} else {
		ch.stats["consecCacheMisses"]++
	}
	return core, ok
}

// memoStore records an UNSAT consecution answer with the given
// cube-literal core subset.
func (ch *checker) memoStore(c icpCube, frame int, core icpCube) {
	ch.memo.store(c, frame, core)
}
