// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects
// the type-checked AST of one package through a Pass and reports
// Diagnostics.  The repo cannot vendor x/tools (offline builds only),
// so this package supplies just the surface the icplint suite needs;
// the API mirrors upstream closely enough that migrating the analyzers
// to the real framework is a mechanical change of import paths.
//
// The suite itself lives in the subpackages roundcheck, detrange,
// budgetloop, guardgo, resulterr, lockguard, releasetrack and
// scratchalias; cmd/icplint is the multichecker driver.  See DESIGN.md
// §11 and §16 for the invariants each analyzer guards.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in reports and //lint:allow pragmas.
	Name string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is a single finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's parsed and type-checked representation to
// an analyzer's Run function.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diagnostics = append(p.diagnostics, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings recorded so far.
func (p *Pass) Diagnostics() []Diagnostic { return p.diagnostics }
