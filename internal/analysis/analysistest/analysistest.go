// Package analysistest runs an analyzer over fixture packages under a
// testdata/src tree and checks its diagnostics against // want
// comments, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line that must be flagged carries a trailing comment
//
//	for k := range m { // want `range over map`
//
// where each backquoted or double-quoted string after "want" is a
// regular expression that must match a diagnostic reported on that
// line.  Every diagnostic must be matched by a want and every want
// must match a diagnostic, so fixtures pin both the positives and the
// negatives of an analyzer.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"icpic3/internal/analysis"
)

// wantRe captures the expectation strings of a // want comment.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads each fixture package below testdata/src by import path,
// applies the analyzer, and reports any mismatch between diagnostics
// and // want expectations as test errors.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	srcRoot := filepath.Join(testdata, "src")
	for _, path := range paths {
		pkg, err := analysis.LoadFixture(srcRoot, path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		checkPackage(t, a, pkg)
	}
}

func checkPackage(t *testing.T, a *analysis.Analyzer, pkg *analysis.Package) {
	t.Helper()
	wants, err := collectWants(pkg)
	if err != nil {
		t.Errorf("%s: %v", pkg.Path, err)
		return
	}
	pass := &analysis.Pass{
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		t.Errorf("%s: running %s: %v", pkg.Path, a.Name, err)
		return
	}
	for _, d := range pass.Diagnostics() {
		pos := pkg.Fset.Position(d.Pos)
		key := posKey(pos)
		exps := wants[key]
		matched := false
		for _, e := range exps {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %q", key, d.Message)
		}
	}
	for key, exps := range wants {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, e.re)
			}
		}
	}
}

func posKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// collectWants parses the // want comments of every fixture file.
func collectWants(pkg *analysis.Package) (map[string][]*expectation, error) {
	wants := make(map[string][]*expectation)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, tok := range wantRe.FindAllString(strings.TrimPrefix(text, "want "), -1) {
					pattern, err := unquoteWant(tok)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want token %s: %v", pos.Filename, pos.Line, tok, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					key := posKey(pos)
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}
	return wants, nil
}

func unquoteWant(tok string) (string, error) {
	if strings.HasPrefix(tok, "`") {
		return strings.Trim(tok, "`"), nil
	}
	return strconv.Unquote(tok)
}
