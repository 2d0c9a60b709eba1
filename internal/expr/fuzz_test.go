package expr

import (
	"math"
	"testing"

	"icpic3/internal/interval"
)

// FuzzParse checks the parser never panics and that successful parses
// round-trip through String.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"x + 1",
		"x' = x / 2 and (b -> y <= 3)",
		"ite(a <-> b, min(x, -y), abs(z) ^ 3)",
		"sin(x) * cos(y) > tanh(z)",
		"!(!(x != y)) or true",
		"1e308 + 1e-308 <= x",
		"((((", "x ^", "-> ->", "0..0", "'", "x''",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		rendered := e.String()
		e2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("round trip of %q failed: %q: %v", src, rendered, err)
		}
		if e2.String() != rendered {
			t.Fatalf("unstable rendering: %q vs %q", rendered, e2.String())
		}
		// simplification must not panic and must stay re-parsable
		s := Simplify(e)
		if _, err := Parse(s.String()); err != nil {
			t.Fatalf("simplified form unparsable: %q: %v", s.String(), err)
		}
	})
}

// FuzzEvalInterval checks the interval evaluator's containment property
// on arbitrary expressions over two real variables: wherever
// EvalInterval succeeds on a box, Eval succeeds at the box's corners and
// midpoint and its value (Booleans as 0/1) lies in the enclosure.
func FuzzEvalInterval(f *testing.F) {
	seeds := []string{
		"x + y * 3", "sin(x * y) + cos(x - y) / (2 + x ^ 2)", "sqrt(abs(x)) - log(1 + y ^ 2)",
		"ite(x <= y, exp(x), tanh(y))", "x ^ -2 + atan(y)", "tan(x / 4) <= min(x, y)",
		"x = y or !(x != 1) -> x > y", "(x < y) <-> (max(x, y) >= 0)",
	}
	for _, s := range seeds {
		f.Add(s, 0.3, -1.2, 0.5)
	}
	f.Fuzz(func(t *testing.T, src string, x, y, w float64) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		if _, err := e.Check(TypeEnv{"x": KindReal, "y": KindReal}); err != nil {
			return
		}
		for _, v := range []float64{x, y, w} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				return
			}
		}
		w = math.Abs(w)
		box := IEnv{"x": interval.New(x, x+w), "y": interval.New(y, y+w)}
		enc, err := e.EvalInterval(box)
		if err != nil {
			return
		}
		for _, px := range []float64{x, x + w, x + w/2} {
			for _, py := range []float64{y, y + w, y + w/2} {
				v, err := e.Eval(Env{"x": px, "y": py})
				if err != nil {
					t.Fatalf("%s: enclosure %v over %v, but Eval at (%v, %v) fails: %v", src, enc, box, px, py, err)
				}
				if !math.IsNaN(v) && !enc.Contains(v) {
					t.Fatalf("%s: Eval at (%v, %v) = %v outside enclosure %v over %v", src, px, py, v, enc, box)
				}
			}
		}
	})
}
