package cfg

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// Format renders the graph as stable, diffable text, the shape pinned
// by the golden-file tests:
//
//	fn Check
//	b0 entry
//	  req, err := req.normalize(s.cfg)
//	  => b2
//	b1 exit
//
// One line per node (printed with go/printer and collapsed to a single
// line), then the successor list.  Unreachable blocks are suffixed
// "(unreachable)" so goldens pin dead-code handling too.
func Format(fset *token.FileSet, g *Graph) string {
	var buf bytes.Buffer
	reach := g.Reachable()
	fmt.Fprintf(&buf, "fn %s\n", g.Name)
	for _, b := range g.Blocks {
		// skip empty detached placeholder blocks: they carry no
		// statements and no edges, only noise
		if len(b.Nodes) == 0 && len(b.Succs) == 0 && len(b.Preds) == 0 && b.Kind != "entry" {
			continue
		}
		fmt.Fprintf(&buf, "b%d %s", b.Index, b.Kind)
		if b.Panics {
			buf.WriteString(" panics")
		}
		if !reach[b.Index] {
			buf.WriteString(" (unreachable)")
		}
		buf.WriteByte('\n')
		for _, n := range b.Nodes {
			fmt.Fprintf(&buf, "  %s\n", nodeText(fset, n))
		}
		if len(b.Succs) > 0 {
			var succs []string
			for _, s := range b.Succs {
				succs = append(succs, fmt.Sprintf("b%d", s.Index))
			}
			fmt.Fprintf(&buf, "  => %s\n", strings.Join(succs, " "))
		}
	}
	return buf.String()
}

// nodeText prints one node on one line.
func nodeText(fset *token.FileSet, n ast.Node) string {
	if fset == nil {
		fset = token.NewFileSet()
	}
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.RawFormat}
	if rs, ok := n.(*ast.RangeStmt); ok {
		// print the range clause without its body: the body lives in the
		// successor blocks
		hdr := &ast.RangeStmt{
			For: rs.For, Key: rs.Key, Value: rs.Value, Tok: rs.Tok,
			Range: rs.Range, X: rs.X,
			Body: &ast.BlockStmt{},
		}
		_ = cfg.Fprint(&buf, fset, hdr)
	} else {
		_ = cfg.Fprint(&buf, fset, n)
	}
	s := buf.String()
	// collapse to one line
	fields := strings.Fields(s)
	return strings.Join(fields, " ")
}
