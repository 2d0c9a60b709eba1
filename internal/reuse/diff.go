// Package reuse turns verification certificates into a cache that
// survives resubmission: production traffic is CI-shaped, so a new job
// is often a near-identical variant of one already proved safe.  The
// package provides a structural diff between transition systems
// (Diff), a persistent certificate store with closest-prior lookup
// (Store), and the glue the service uses to seed IC3 frames and
// k-induction depth from a prior proof.  Soundness never depends on
// the cache: every reused clause is re-checked against the new
// Init/Trans with fresh solvers before it is installed (see
// ic3icp.Options.SeedClauses), so a stale or corrupted certificate
// costs only the re-check, never a wrong verdict.
package reuse

import (
	"sort"
	"strings"

	"icpic3/internal/expr"
	"icpic3/internal/ts"
)

// Delta is the structural difference between two transition systems,
// canonically aligned: variables are matched by name (the same
// normalization ts.Canonical uses), formulas are simplified before
// comparison, and formula distances are normalized token-level edit
// distances in [0, 1].
type Delta struct {
	// VarsAdded/VarsRemoved count variables present in only one system;
	// VarsChanged counts name-matched variables whose kind or declared
	// domain differs.
	VarsAdded   int
	VarsRemoved int
	VarsChanged int
	// InitDist, TransDist, PropDist are normalized edit distances of the
	// canonical formula renderings (0 = identical, 1 = nothing shared).
	InitDist  float64
	TransDist float64
	PropDist  float64
	// Distance is the aggregate score: 0 for canonically identical
	// systems, growing with every structural edit.  The variable term is
	// normalized by the larger variable count, so one renamed variable in
	// a two-variable system weighs more than in a twenty-variable one.
	Distance float64
}

// Identical reports whether the two systems are canonically equal.
func (d Delta) Identical() bool { return d.Distance == 0 }

// Diff computes the canonical structural difference between two
// systems.  It is symmetric up to the Added/Removed labels.
func Diff(old, new *ts.System) Delta { return shapeOf(old).diff(shapeOf(new)) }

// shape is what Diff reads of a system, rendered once: the declarations
// by name and each formula's canonical rendering.  The store keeps one
// per entry and renders an incoming system once per lookup.
type shape struct {
	vars              map[string]ts.VarDecl
	nvars             int
	init, trans, prop rendering
}

func shapeOf(s *ts.System) *shape {
	m := make(map[string]ts.VarDecl, len(s.Vars))
	for _, v := range s.Vars {
		m[v.Name] = v
	}
	return &shape{vars: m, nvars: len(s.Vars),
		init: render(s.Init), trans: render(s.Trans), prop: render(s.Prop)}
}

// diff is Diff over rendered systems.
func (old *shape) diff(new *shape) Delta {
	var d Delta

	// --- variables, aligned by name (canonical order) ------------------
	for name, ov := range old.vars {
		nv, ok := new.vars[name]
		if !ok {
			d.VarsRemoved++
			continue
		}
		if ov.Kind != nv.Kind || ov.Dom != nv.Dom {
			d.VarsChanged++
		}
	}
	for name := range new.vars {
		if _, ok := old.vars[name]; !ok {
			d.VarsAdded++
		}
	}
	maxVars := max(old.nvars, new.nvars)

	// --- formulas, canonical rendering ---------------------------------
	d.InitDist = old.init.dist(new.init)
	d.TransDist = old.trans.dist(new.trans)
	d.PropDist = old.prop.dist(new.prop)

	varScore := 0.0
	if maxVars > 0 {
		varScore = float64(d.VarsAdded+d.VarsRemoved+d.VarsChanged) / float64(maxVars)
	}
	// Trans carries most of a system's structure; Init and Prop edits are
	// cheaper to absorb because seeded clauses are re-checked against the
	// new Init/Trans anyway.
	d.Distance = varScore + 0.5*d.TransDist + 0.25*d.InitDist + 0.25*d.PropDist
	return d
}

// rendering is a formula as Diff compares it: the rendering of its
// simplified form and that rendering's tokens.  A nil formula is absent.
type rendering struct {
	present bool
	text    string
	toks    []string
}

func render(e *expr.Expr) rendering {
	if e == nil {
		return rendering{}
	}
	text := expr.Simplify(e).String()
	return rendering{present: true, text: text, toks: tokenize(text)}
}

// dist is the normalized token edit distance between two renderings.
func (a rendering) dist(b rendering) float64 {
	if !a.present || !b.present {
		if a.present == b.present {
			return 0
		}
		return 1
	}
	if a.text == b.text {
		return 0
	}
	n := max(len(a.toks), len(b.toks))
	if n == 0 {
		return 0
	}
	return float64(editDistance(a.toks, b.toks)) / float64(n)
}

// tokenize splits a formula rendering into identifier/number/operator
// tokens, dropping whitespace and parentheses (the canonical renderer
// fully parenthesizes, so parens carry no edit information beyond what
// the operator tokens already encode).
func tokenize(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '(' || c == ')':
			i++
		case isWordByte(c):
			j := i + 1
			for j < len(s) && isWordByte(s[j]) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		default:
			// operator run: <=, >=, !=, ->, ...
			j := i + 1
			for j < len(s) && !isWordByte(s[j]) && s[j] != ' ' && s[j] != '(' && s[j] != ')' {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks
}

// isWordByte reports whether b belongs to an identifier or number token.
func isWordByte(b byte) bool {
	return b == '_' || b == '.' || b == '\'' || b == '@' ||
		('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

// editDistance is the Levenshtein distance over token slices.
func editDistance(a, b []string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// String renders the delta compactly for logs.
func (d Delta) String() string {
	var parts []string
	if d.VarsAdded+d.VarsRemoved+d.VarsChanged > 0 {
		parts = append(parts, "vars")
	}
	if d.InitDist > 0 {
		parts = append(parts, "init")
	}
	if d.TransDist > 0 {
		parts = append(parts, "trans")
	}
	if d.PropDist > 0 {
		parts = append(parts, "prop")
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "identical"
	}
	return strings.Join(parts, "+")
}
