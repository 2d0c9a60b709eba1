package ts

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"

	"icpic3/internal/expr"
	"icpic3/internal/interval"
)

// Parse reads a transition system from the line-oriented model format:
//
//	# comment
//	system <name>
//	var <name> : real [<lo>, <hi>]
//	var <name> : int [<lo>, <hi>]
//	var <name> : bool
//	init <formula>
//	trans <formula>
//	prop <formula>
//
// init/trans/prop lines may be repeated; repetitions are conjoined.
// Long formulas may be continued by ending a line with a backslash.
func Parse(src string) (*System, error) {
	s := New("unnamed")
	sc := bufio.NewScanner(strings.NewReader(src))
	// Lines may be up to 1 MiB long; the buffer starts at the scanner's
	// 4 KiB default and only grows for a line that needs it.
	sc.Buffer(nil, 1024*1024)
	lineNo := 0
	var pending string
	var inits, transs, props, invs []*expr.Expr

	flushLine := func(line string) error {
		fields := strings.SplitN(line, " ", 2)
		keyword := fields[0]
		rest := ""
		if len(fields) > 1 {
			rest = strings.TrimSpace(fields[1])
		}
		switch keyword {
		case "system":
			if rest == "" {
				return fmt.Errorf("system needs a name")
			}
			s.Name = rest
		case "var":
			if err := parseVarDecl(s, rest); err != nil {
				return err
			}
		case "init", "trans", "prop", "invariant":
			e, err := expr.Parse(rest)
			if err != nil {
				return fmt.Errorf("%s: %w", keyword, err)
			}
			switch keyword {
			case "init":
				inits = append(inits, e)
			case "trans":
				transs = append(transs, e)
			case "prop":
				props = append(props, e)
			case "invariant":
				invs = append(invs, e)
			}
		default:
			return fmt.Errorf("unknown keyword %q", keyword)
		}
		return nil
	}

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, "\\") {
			pending += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		line = pending + line
		pending = ""
		if err := flushLine(line); err != nil {
			return nil, fmt.Errorf("ts: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ts: %w", err)
	}
	if pending != "" {
		return nil, fmt.Errorf("ts: dangling continuation at end of file")
	}
	if len(inits) > 0 {
		s.Init = expr.And(inits...)
	}
	if len(transs) > 0 {
		s.Trans = expr.And(transs...)
	}
	if len(props) > 0 {
		s.Prop = expr.And(props...)
	}
	if len(invs) > 0 {
		s.Invariant = expr.And(invs...)
		s.ApplyInvariant()
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseVarDecl(s *System, rest string) error {
	// <name> : <type> [lo, hi]
	parts := strings.SplitN(rest, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("var declaration needs ':': %q", rest)
	}
	name := strings.TrimSpace(parts[0])
	typePart := strings.TrimSpace(parts[1])
	if name == "" {
		return fmt.Errorf("var declaration needs a name")
	}
	switch {
	case typePart == "bool":
		return s.AddBool(name)
	case strings.HasPrefix(typePart, "real") || strings.HasPrefix(typePart, "int"):
		kind := expr.KindReal
		rangePart := strings.TrimSpace(strings.TrimPrefix(typePart, "real"))
		if strings.HasPrefix(typePart, "int") {
			kind = expr.KindInt
			rangePart = strings.TrimSpace(strings.TrimPrefix(typePart, "int"))
		}
		dom := interval.Entire()
		if rangePart != "" {
			var err error
			dom, err = parseRange(rangePart)
			if err != nil {
				return fmt.Errorf("var %s: %w", name, err)
			}
		}
		return s.AddVar(name, kind, dom)
	}
	return fmt.Errorf("unknown variable type %q", typePart)
}

func parseRange(r string) (interval.Interval, error) {
	r = strings.TrimSpace(r)
	if !strings.HasPrefix(r, "[") || !strings.HasSuffix(r, "]") {
		return interval.Interval{}, fmt.Errorf("range must be [lo, hi], got %q", r)
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(r, "["), "]")
	parts := strings.Split(inner, ",")
	if len(parts) != 2 {
		return interval.Interval{}, fmt.Errorf("range must have two bounds, got %q", r)
	}
	lo, err := parseBound(parts[0])
	if err != nil {
		return interval.Interval{}, err
	}
	hi, err := parseBound(parts[1])
	if err != nil {
		return interval.Interval{}, err
	}
	iv := interval.New(lo, hi)
	if iv.IsEmpty() {
		return interval.Interval{}, fmt.Errorf("empty range %q", r)
	}
	return iv, nil
}

func parseBound(s string) (float64, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "-inf":
		return math.Inf(-1), nil
	case "inf", "+inf":
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad bound %q", s)
	}
	return v, nil
}
