package reuse

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"icpic3/internal/engine"
	"icpic3/internal/ts"
)

// Entry is one stored proof: the system it was proved on (canonical
// source, so it can be re-parsed and diffed against new submissions)
// and the certificate evidence.  Only Safe verdicts are stored —
// certificates are the reusable artifact; Unsafe traces are tied to the
// exact system and Unknowns carry no evidence at all.
type Entry struct {
	// Hash is the canonical ts.Hash of the proved system (the store key).
	Hash string `json:"hash"`
	// Source is the model text in the internal/ts syntax (ts.System.String).
	Source string `json:"source"`
	// Engine is the engine that produced the proof (ic3 | kind | portfolio).
	Engine string `json:"engine"`
	// Depth is the engine-specific proof depth (frames or induction depth).
	Depth int `json:"depth"`
	// Cert is the engine-neutral certificate (box invariant or k-induction).
	Cert *engine.Certificate `json:"certificate"`
}

// storeItem is the in-memory record: the entry plus its system rendered
// for Diff, so Lookup never re-parses or re-renders per candidate.
type storeItem struct {
	entry Entry
	shape *shape
}

// Store is a bounded LRU of proof certificates keyed by the canonical
// system hash, with optional on-disk persistence (one JSON file per
// entry) so the cache is warm across restarts.  Lookup returns the
// closest prior certificate under a structural-diff threshold, which is
// how a resubmitted near-identical system finds the proof of its
// predecessor.
type Store struct {
	mu    sync.Mutex
	max   int
	dir   string // "" = memory only
	order *list.List
	items map[string]*list.Element
}

// Open creates a store bounded to max entries (<= 0 selects 512).  A
// non-empty dir enables persistence: the directory is created if
// missing and every *.json certificate in it is loaded (newest first
// ends up most recently used); unreadable or malformed files are
// skipped, never fatal — a cache must not refuse to start over one bad
// entry.
func Open(dir string, max int) (*Store, error) {
	if max <= 0 {
		max = 512
	}
	s := &Store{max: max, dir: dir, order: list.New(), items: make(map[string]*list.Element)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("reuse: cache dir: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("reuse: cache dir scan: %w", err)
	}
	sort.Strings(names) // deterministic load order
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		var e Entry
		if err := json.Unmarshal(b, &e); err != nil {
			continue
		}
		s.put(e, false) // already on disk
	}
	return s, nil
}

// Len returns the number of cached certificates.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Dir returns the persistence directory ("" when memory-only).
func (s *Store) Dir() string { return s.dir }

// Put stores a Safe result's certificate for the system.  Results
// without a certificate are ignored.  An existing entry for the same
// hash is replaced (a fresh proof of the same system may carry a
// smaller certificate).  The write-through to disk is best-effort: a
// persistence error is returned but the in-memory entry stands.
func (s *Store) Put(sys *ts.System, engineName string, depth int, cert *engine.Certificate) error {
	if cert == nil {
		return nil
	}
	e := Entry{
		Hash:   sys.Hash(),
		Source: sys.String(),
		Engine: engineName,
		Depth:  depth,
		Cert:   cert,
	}
	return s.put(e, s.dir != "")
}

// put installs an entry, optionally persisting it; it parses and renders
// the source once for future diffs and silently drops entries whose
// source no longer parses (possible only for corrupted on-disk files).
func (s *Store) put(e Entry, persist bool) error {
	sys, err := ts.Parse(e.Source)
	if err != nil {
		return fmt.Errorf("reuse: entry %s: source does not parse: %w", short(e.Hash), err)
	}
	item := &storeItem{entry: e, shape: shapeOf(sys)}
	s.mu.Lock()
	if el, ok := s.items[e.Hash]; ok {
		el.Value = item
		s.order.MoveToFront(el)
	} else {
		s.items[e.Hash] = s.order.PushFront(item)
		if s.order.Len() > s.max {
			oldest := s.order.Back()
			s.order.Remove(oldest)
			evicted := oldest.Value.(*storeItem).entry.Hash
			delete(s.items, evicted)
			if s.dir != "" {
				os.Remove(s.path(evicted))
			}
		}
	}
	s.mu.Unlock()
	if !persist {
		return nil
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	// write-then-rename so a crash mid-write never leaves a torn file
	tmp := s.path(e.Hash) + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("reuse: persist: %w", err)
	}
	if err := os.Rename(tmp, s.path(e.Hash)); err != nil {
		return fmt.Errorf("reuse: persist: %w", err)
	}
	return nil
}

func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash+".json")
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// Get returns the entry for an exact canonical hash.
func (s *Store) Get(hash string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[hash]
	if !ok {
		return Entry{}, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*storeItem).entry, true
}

// Match is a Lookup result: the closest prior certificate and how far
// its system is from the submitted one.
type Match struct {
	Entry Entry
	Delta Delta
}

// Exact reports whether the match is the very system (distance 0).
func (m Match) Exact() bool { return m.Delta.Identical() }

// Lookup finds the closest prior certificate whose structural distance
// to sys is at most maxDist (<= 0 selects 0.25).  An exact hash hit
// short-circuits the scan.  Ties break toward the most recently used
// entry, so repeated traffic converges on its own lineage.
func (s *Store) Lookup(sys *ts.System, maxDist float64) (Match, bool) {
	if maxDist <= 0 {
		maxDist = 0.25
	}
	hash := sys.Hash()
	if e, ok := s.Get(hash); ok {
		return Match{Entry: e}, true
	}
	s.mu.Lock()
	// snapshot in LRU order; the diff scan runs outside the lock
	items := make([]*storeItem, 0, s.order.Len())
	for el := s.order.Front(); el != nil; el = el.Next() {
		items = append(items, el.Value.(*storeItem))
	}
	s.mu.Unlock()

	best := Match{}
	found := false
	incoming := shapeOf(sys)
	for _, it := range items {
		d := it.shape.diff(incoming)
		if d.Distance > maxDist {
			continue
		}
		if !found || d.Distance < best.Delta.Distance {
			best = Match{Entry: it.entry, Delta: d}
			found = true
		}
	}
	if found {
		// refresh recency of the winner
		s.mu.Lock()
		if el, ok := s.items[best.Entry.Hash]; ok {
			s.order.MoveToFront(el)
		}
		s.mu.Unlock()
	}
	return best, found
}

// Hashes returns the stored hashes, most recently used first (for tests
// and diagnostics).
func (s *Store) Hashes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.order.Len())
	for el := s.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*storeItem).entry.Hash)
	}
	return out
}

// Describe renders a match for logs: "exact" or the changed parts with
// their aggregate distance.
func (m Match) Describe() string {
	if m.Exact() {
		return "exact"
	}
	return fmt.Sprintf("%s (dist %.3f)", m.Delta, m.Delta.Distance)
}
