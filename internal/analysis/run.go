package analysis

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// Finding is one diagnostic located in the source tree, the unit of
// icplint's output.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
	// Allowed marks a finding suppressed by a //lint:allow pragma; it is
	// reported in the summary but does not fail the run.
	Allowed bool
}

// pragmaAnalyzer is the pseudo-analyzer name under which malformed and
// unused //lint:allow pragmas are reported.  Pragma hygiene findings
// cannot themselves be suppressed.
const pragmaAnalyzer = "pragma"

// RunAnalyzers applies every analyzer to every package, resolves
// //lint:allow pragmas, and returns the findings sorted by position.
// Pragma problems (missing reason, suppressing nothing) are appended
// as findings of the "pragma" pseudo-analyzer so stale escapes fail
// the build just like real violations.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	type key struct {
		file string
		line int
		name string
	}
	pragmaAt := make(map[key]*Pragma)
	var allPragmas []*Pragma
	for _, pkg := range pkgs {
		for _, pr := range pkg.Pragmas {
			allPragmas = append(allPragmas, pr)
			if pr.Analyzer == "" || pr.Reason == "" {
				continue // reported as malformed below
			}
			pragmaAt[key{pr.File, pr.Line, pr.Analyzer}] = pr
		}
	}

	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range pass.Diagnostics() {
				pos := pkg.Fset.Position(d.Pos)
				f := Finding{
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: a.Name,
					Message:  d.Message,
				}
				// A pragma suppresses findings on its own line or the line
				// directly below it.
				for _, line := range []int{pos.Line, pos.Line - 1} {
					if pr, ok := pragmaAt[key{pos.Filename, line, a.Name}]; ok {
						pr.Used = true
						f.Allowed = true
						break
					}
				}
				findings = append(findings, f)
			}
		}
	}

	for _, pr := range allPragmas {
		switch {
		case pr.Analyzer == "" || pr.Reason == "":
			findings = append(findings, Finding{
				File: pr.File, Line: pr.Line, Col: 1,
				Analyzer: pragmaAnalyzer,
				Message:  "malformed pragma: want //lint:allow <analyzer> <reason>",
			})
		case !pr.Used:
			findings = append(findings, Finding{
				File: pr.File, Line: pr.Line, Col: 1,
				Analyzer: pragmaAnalyzer,
				Message:  fmt.Sprintf("unused //lint:allow %s pragma suppresses nothing; remove it", pr.Analyzer),
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// Failing counts the findings that should fail the run (everything not
// suppressed by a pragma).
func Failing(findings []Finding) int {
	n := 0
	for _, f := range findings {
		if !f.Allowed {
			n++
		}
	}
	return n
}

// WriteText prints findings in the classic file:line:col style plus a
// summary of pragma-suppressed findings, relativizing paths to dir
// when possible.
func WriteText(w io.Writer, dir string, findings []Finding) {
	allowed := make(map[string]int)
	for _, f := range findings {
		if f.Allowed {
			allowed[f.Analyzer]++
			continue
		}
		fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", relPath(dir, f.File), f.Line, f.Col, f.Analyzer, f.Message)
	}
	if len(allowed) > 0 {
		names := make([]string, 0, len(allowed))
		for name := range allowed {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "icplint: pragma-allowed findings:")
		for _, name := range names {
			fmt.Fprintf(w, " %s=%d", name, allowed[name])
		}
		fmt.Fprintln(w)
	}
	if n := Failing(findings); n > 0 {
		fmt.Fprintf(w, "icplint: %d finding(s)\n", n)
	}
}

func relPath(dir, file string) string {
	if dir == "" {
		return file
	}
	if rel, err := filepath.Rel(dir, file); err == nil && !filepath.IsAbs(rel) && rel != "" && !isParentEscape(rel) {
		return rel
	}
	return file
}

func isParentEscape(rel string) bool {
	return rel == ".." || len(rel) > 2 && rel[:3] == ".."+string(filepath.Separator)
}
