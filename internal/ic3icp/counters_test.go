package ic3icp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icpic3/internal/engine"
)

// TestCountersWrittenByEngine checks that the engines write every
// engine.Counters key as a literal stats["<key>"]: this package or, for
// the exits of the unrolled queries, bmc and kind (and this package for
// the trace exits of its counterexample search).  ic3icp's Check seeds
// each schema key with zero, so a key misspelt in the schema (or renamed
// in an engine) would otherwise show up as a present but silent zero.
func TestCountersWrittenByEngine(t *testing.T) {
	src := map[string]string{}
	for _, dir := range []string{".", "../bmc", "../kind"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
		}
		src[dir] = b.String()
	}
	// the keys the unrolled engines write, and which engines must
	unrolled := map[string][]string{
		"traceExits": {".", "../bmc", "../kind"},
		"ctiExits":   {"../kind"},
	}
	for _, c := range engine.Counters {
		dirs, ok := unrolled[c.Key]
		if !ok {
			dirs = []string{"."}
		}
		for _, dir := range dirs {
			if !strings.Contains(src[dir], `stats["`+c.Key+`"]`) {
				t.Errorf("counter %q is declared in engine.Counters but never written by %s", c.Key, filepath.Base(dir))
			}
		}
	}
}
