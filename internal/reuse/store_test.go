package reuse

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"icpic3/internal/engine"
)

func boxCert(bounds ...engine.CertBound) *engine.Certificate {
	return &engine.Certificate{Kind: engine.CertBoxInvariant, Cubes: []engine.Cube{bounds}}
}

func TestStoreExactHit(t *testing.T) {
	s, err := Open("", 8)
	if err != nil {
		t.Fatal(err)
	}
	sys := mustParse(t, decaySrc)
	cert := boxCert(engine.CertBound{Var: "x", Le: false, B: 9})
	if err := s.Put(sys, "ic3", 3, cert); err != nil {
		t.Fatal(err)
	}
	m, ok := s.Lookup(mustParse(t, decaySrc), 0.25)
	if !ok || !m.Exact() {
		t.Fatalf("lookup = %+v ok=%v", m, ok)
	}
	if m.Entry.Engine != "ic3" || m.Entry.Depth != 3 || m.Entry.Cert == nil {
		t.Fatalf("entry = %+v", m.Entry)
	}
	if m.Describe() != "exact" {
		t.Errorf("Describe() = %q", m.Describe())
	}
}

func TestStoreNilCertIgnored(t *testing.T) {
	s, _ := Open("", 8)
	if err := s.Put(mustParse(t, decaySrc), "ic3", 1, nil); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d after nil-cert put", s.Len())
	}
}

func TestStoreNearLookup(t *testing.T) {
	s, _ := Open("", 8)
	old := mustParse(t, decaySrc)
	s.Put(old, "ic3", 2, boxCert(engine.CertBound{Var: "x", Le: false, B: 9}))

	// resubmission with one tightened bound: close enough to match
	edited := mustParse(t, `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 7.5
`)
	m, ok := s.Lookup(edited, 0.25)
	if !ok || m.Exact() {
		t.Fatalf("near lookup = %+v ok=%v", m, ok)
	}
	if m.Entry.Hash != old.Hash() {
		t.Errorf("matched %s, want %s", m.Entry.Hash, old.Hash())
	}
	// the same edit must miss under a stricter threshold
	if _, ok := s.Lookup(edited, 0.001); ok {
		t.Error("lookup matched under a threshold tighter than the edit")
	}
}

func TestStoreClosestWins(t *testing.T) {
	s, _ := Open("", 8)
	far := mustParse(t, `
system decay
var x : real [0, 10]
init x >= 0 and x <= 2
trans x' = x / 4
prop x <= 9
`)
	near := mustParse(t, decaySrc)
	s.Put(far, "ic3", 2, boxCert(engine.CertBound{Var: "x", Le: false, B: 9.5}))
	s.Put(near, "ic3", 2, boxCert(engine.CertBound{Var: "x", Le: false, B: 9}))

	edited := mustParse(t, `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 7.9
`)
	m, ok := s.Lookup(edited, 0.5)
	if !ok || m.Entry.Hash != near.Hash() {
		t.Fatalf("closest = %+v ok=%v, want hash of near variant", m, ok)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s, _ := Open("", 2)
	mk := func(bound string) string {
		sys := mustParse(t, `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= `+bound)
		s.Put(sys, "ic3", 1, boxCert(engine.CertBound{Var: "x", Le: false, B: 9}))
		return sys.Hash()
	}
	h1 := mk("8")
	h2 := mk("8.1")
	if _, ok := s.Get(h1); !ok { // refresh h1: h2 becomes LRU
		t.Fatal("h1 missing")
	}
	h3 := mk("8.2")
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if _, ok := s.Get(h2); ok {
		t.Error("h2 should have been evicted")
	}
	for _, h := range []string{h1, h3} {
		if _, ok := s.Get(h); !ok {
			t.Errorf("%s missing", short(h))
		}
	}
}

func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	sys := mustParse(t, decaySrc)
	if err := s.Put(sys, "ic3", 2, boxCert(engine.CertBound{Var: "x", Le: false, B: 9})); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, sys.Hash()+".json")); err != nil {
		t.Fatalf("certificate file: %v", err)
	}

	// a malformed file must be skipped, not fatal
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reloaded len = %d, want 1", s2.Len())
	}
	e, ok := s2.Get(sys.Hash())
	if !ok || e.Cert == nil || e.Cert.Kind != engine.CertBoxInvariant || e.Depth != 2 {
		t.Fatalf("reloaded entry = %+v ok=%v", e, ok)
	}
}

func TestStoreEvictionRemovesFile(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 1)
	a := mustParse(t, decaySrc)
	b := mustParse(t, `
system decay
var x : real [0, 10]
init x >= 0 and x <= 6
trans x' = x / 2
prop x <= 8.25
`)
	s.Put(a, "ic3", 1, boxCert(engine.CertBound{Var: "x", Le: false, B: 9}))
	s.Put(b, "ic3", 1, boxCert(engine.CertBound{Var: "x", Le: false, B: 9}))
	if _, err := os.Stat(filepath.Join(dir, a.Hash()+".json")); !os.IsNotExist(err) {
		t.Errorf("evicted entry still on disk: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, b.Hash()+".json")); err != nil {
		t.Errorf("kept entry missing: %v", err)
	}
	if got := s.Hashes(); len(got) != 1 || got[0] != b.Hash() {
		t.Errorf("hashes = %v", got)
	}
}

// savedEntry is a certificate file in the format the store writes.
// Files already on disk must keep loading, so the format is pinned byte
// for byte.
const savedEntry = `{
  "hash": "88ccf3df37ebda4633f1a9478291748004ef56b54edf0d3cae2d67fa39dee8ec",
  "source": "system decay\nvar x : real [0, 10]\ninit ((x \u003e= 0) and (x \u003c= 6))\ntrans (x' = (x / 2))\nprop (x \u003c= 8)\n",
  "engine": "ic3",
  "depth": 1,
  "certificate": {
    "kind": "box-invariant",
    "cubes": [
      [
        {
          "var": "x",
          "le": false,
          "b": 6.005410725753752
        }
      ]
    ]
  }
}`

func TestStoreLoadsSavedEntry(t *testing.T) {
	dir := t.TempDir()
	sys := mustParse(t, decaySrc)
	if err := os.WriteFile(filepath.Join(dir, sys.Hash()+".json"), []byte(savedEntry), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.Get(sys.Hash())
	if !ok || e.Cert == nil || len(e.Cert.Cubes) != 1 {
		t.Fatalf("saved entry = %+v ok=%v", e, ok)
	}
	if got, want := e.Cert.Cubes[0].String(), "x>=6.005410725753752"; got != want {
		t.Errorf("cube = %s, want %s", got, want)
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != savedEntry {
		t.Errorf("entry re-encodes as\n%s\nwant\n%s", b, savedEntry)
	}
}
