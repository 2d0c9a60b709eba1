package ic3icp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icpic3/internal/engine"
)

// TestCountersWrittenByEngine checks that this package writes every
// engine.Counters key as a literal stats["<key>"].  Check seeds each
// schema key with zero, so a key misspelt in the schema (or renamed
// here) would otherwise show up as a present but silent zero.
func TestCountersWrittenByEngine(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	for _, c := range engine.Counters {
		if !strings.Contains(src.String(), `stats["`+c.Key+`"]`) {
			t.Errorf("counter %q is declared in engine.Counters but never written by ic3icp", c.Key)
		}
	}
}
