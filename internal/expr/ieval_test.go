package expr

import (
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"icpic3/internal/interval"
)

// ievalOps is one expression per arithmetic op, over x and y.
var ievalOps = []string{
	"x + y", "x - y", "x * y", "x / y", "min(x, y)", "max(x, y)",
	"-x", "abs(x)", "sqrt(x)", "exp(x)", "log(x)", "sin(x)", "cos(x)",
	"tan(x)", "atan(x)", "tanh(x)", "x ^ 2", "x ^ 3", "x ^ -1", "x ^ -2",
	"sin(x * y) + cos(x - y) / (2 + x ^ 2)",
}

// checkContains evaluates e over the box env and, when that succeeds,
// asserts at each point that Eval succeeds (EvalInterval vouches for
// definedness) and that its value lies in the enclosure.
func checkContains(t *testing.T, e *Expr, env IEnv, points []Env) {
	t.Helper()
	enc, err := e.EvalInterval(env)
	if err != nil {
		return
	}
	for _, p := range points {
		v, err := e.Eval(p)
		if err != nil {
			t.Fatalf("%s: enclosure %v over %v, but Eval at %v fails: %v", e, enc, env, p, err)
		}
		if !math.IsNaN(v) && !enc.Contains(v) {
			t.Fatalf("%s: Eval at %v = %v outside enclosure %v over %v", e, p, v, enc, env)
		}
	}
}

// boxPoints returns the corners, the midpoint and a few random points of
// the box [x0, x1] × [y0, y1].
func boxPoints(rng *rand.Rand, x0, x1, y0, y1 float64) []Env {
	var pts []Env
	for _, x := range []float64{x0, x1, x0/2 + x1/2} {
		for _, y := range []float64{y0, y1, y0/2 + y1/2} {
			pts = append(pts, Env{"x": x, "y": y})
		}
	}
	for i := 0; i < 4; i++ {
		pts = append(pts, Env{"x": x0 + rng.Float64()*(x1-x0), "y": y0 + rng.Float64()*(y1-y0)})
	}
	return pts
}

func TestEvalIntervalContainsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	widths := []float64{0, 1e-12, 1e-3, 0.5, 3}
	for _, src := range ievalOps {
		e := MustParse(src)
		for i := 0; i < 2000; i++ {
			x0, y0 := rng.Float64()*10-5, rng.Float64()*10-5
			x1, y1 := x0+widths[rng.Intn(len(widths))], y0+widths[rng.Intn(len(widths))]
			env := IEnv{"x": interval.New(x0, x1), "y": interval.New(y0, y1)}
			checkContains(t, e, env, boxPoints(rng, x0, x1, y0, y1))
		}
	}
}

// TestEvalIntervalPointRounding pins the outward rounding: at a point,
// the enclosure of every rounding op strictly brackets Eval's float
// result, and the enclosure of a rational op holds the exact rational
// value.  Evaluating with round-to-nearest alone passes the containment
// test above but fails both of these.
func TestEvalIntervalPointRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rounding := []string{
		"x + y", "x - y", "x * y", "x / y", "sqrt(x)", "exp(x)", "log(x)",
		"sin(x)", "cos(x)", "tan(x)", "atan(x)", "tanh(x)", "x ^ 3", "x ^ -1",
	}
	for _, src := range rounding {
		e := MustParse(src)
		for i := 0; i < 500; i++ {
			// |x| < 1 keeps sin, cos, tanh and atan off their clamps
			x, y := 0.05+rng.Float64()*0.9, 0.05+rng.Float64()*0.9
			enc, err := e.EvalInterval(IEnv{"x": interval.Point(x), "y": interval.Point(y)})
			if err != nil {
				t.Fatalf("%s at (%v, %v): %v", src, x, y, err)
			}
			v, _ := e.Eval(Env{"x": x, "y": y})
			if !(enc.Lo < v && v < enc.Hi) {
				t.Fatalf("%s at (%v, %v): enclosure %v does not strictly bracket %v", src, x, y, enc, v)
			}
		}
	}
	// near a zero of cos, shifting the argument by the float64 nearest
	// π/2 (6e-17 low) instead of by π/2 misses cos by several ulps
	const nearZero = -1.6221038674007273
	if enc, _ := MustParse("cos(x)").EvalInterval(IEnv{"x": interval.Point(nearZero)}); !enc.Contains(math.Cos(nearZero)) {
		t.Fatalf("cos(%v): enclosure %v misses %v", nearZero, enc, math.Cos(nearZero))
	}
	exact := map[string]func(x, y *big.Rat) *big.Rat{
		"x + y":  func(x, y *big.Rat) *big.Rat { return new(big.Rat).Add(x, y) },
		"x - y":  func(x, y *big.Rat) *big.Rat { return new(big.Rat).Sub(x, y) },
		"x * y":  func(x, y *big.Rat) *big.Rat { return new(big.Rat).Mul(x, y) },
		"x / y":  func(x, y *big.Rat) *big.Rat { return new(big.Rat).Quo(x, y) },
		"x ^ 3":  func(x, _ *big.Rat) *big.Rat { return new(big.Rat).Mul(x, new(big.Rat).Mul(x, x)) },
		"x ^ -2": func(x, _ *big.Rat) *big.Rat { return new(big.Rat).Inv(new(big.Rat).Mul(x, x)) },
	}
	for src, f := range exact {
		e := MustParse(src)
		for i := 0; i < 500; i++ {
			x, y := rng.Float64()*20-10, rng.Float64()*20-10
			enc, err := e.EvalInterval(IEnv{"x": interval.Point(x), "y": interval.Point(y)})
			if err != nil {
				t.Fatalf("%s at (%v, %v): %v", src, x, y, err)
			}
			want := f(new(big.Rat).SetFloat64(x), new(big.Rat).SetFloat64(y))
			if new(big.Rat).SetFloat64(enc.Lo).Cmp(want) > 0 || new(big.Rat).SetFloat64(enc.Hi).Cmp(want) < 0 {
				t.Fatalf("%s at (%v, %v): enclosure %v misses the exact value %s", src, x, y, enc, want.FloatString(20))
			}
		}
	}
}

func TestEvalTruthThreeValued(t *testing.T) {
	box := IEnv{"x": interval.New(0, 2), "p": interval.Point(1), "b": interval.New(0, 1), "t": interval.Point(1)}
	cases := []struct {
		src  string
		want Truth
	}{
		// comparisons straddling the boundary are unknown
		{"x <= 1", Unknown},
		{"x >= 1", Unknown},
		{"x = 1", Unknown},
		{"x != 1", Unknown},
		// touching: the non-strict side holds, the strict side is open
		{"x <= 2", True},
		{"x < 2", Unknown},
		{"x >= 0", True},
		{"x > 0", Unknown},
		{"x > 2", False},
		{"x < 0", False},
		{"x <= -1", False},
		{"x < 2.5", True},
		// equality decided only on points
		{"p = 1", True},
		{"p != 1", False},
		{"x = 3", False},
		{"x != 3", True},
		// connectives
		{"!(x <= 1)", Unknown},
		{"!(x <= 2)", False},
		{"x <= 1 and x > 2", False},
		{"x <= 1 and x <= 2", Unknown},
		{"x <= 2 and x >= 0", True},
		{"x <= 1 or x <= 2", True},
		{"x <= 1 or x > 2", Unknown},
		{"x > 2 -> x <= 1", True},
		{"x <= 1 -> x <= 2", True},
		{"x <= 2 -> x > 2", False},
		{"x <= 2 -> x <= 1", Unknown},
		{"x <= 2 <-> x >= 0", True},
		{"x <= 2 <-> x > 2", False},
		{"x <= 1 <-> x <= 2", Unknown},
		{"b", Unknown},
		{"t", True},
		{"b and false", False},
		{"b or true", True},
		{"ite(x <= 2, x >= 0, x > 5)", True},
		{"ite(x <= 1, x >= 0, x > 5)", Unknown},
	}
	for _, c := range cases {
		got, err := MustParse(c.src).EvalTruth(box)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s over x in [0, 2]: %v, want %v", c.src, got, c.want)
		}
	}
}

// TestEvalTruthNary: And and Or with more operands than the evaluator's
// stack buffer (ApplyInvariant builds such conjunctions).
func TestEvalTruthNary(t *testing.T) {
	box := IEnv{"x": interval.New(0, 2)}
	args := func(srcs ...string) []*Expr {
		out := make([]*Expr, len(srcs))
		for i, s := range srcs {
			out[i] = MustParse(s)
		}
		return out
	}
	for _, c := range []struct {
		e    *Expr
		want Truth
	}{
		{And(args("x >= 0", "x <= 2", "x < 3", "x > -1")...), True},
		{And(args("x >= 0", "x <= 2", "x < 3", "x > 2", "x <= 1")...), False},
		{Or(args("x > 2", "x < 0", "x > 5", "x <= 1")...), Unknown},
		{Or(args("x > 2", "x < 0", "x > 5", "x <= 2")...), True},
	} {
		if got, err := c.e.EvalTruth(box); err != nil || got != c.want {
			t.Errorf("%s over x in [0, 2]: %v, %v; want %v", c.e, got, err, c.want)
		}
	}
}

func TestEvalIntervalUndefined(t *testing.T) {
	box := IEnv{"x": interval.New(-1, 2)}
	bad := []string{
		"1 / x", "x ^ -1", "sqrt(x)", "log(x + 1)", "tan(x)", "z + 1", // z unbound
		// untaken branches and short-circuited operands still count: the
		// compiled formula constrains every subterm
		"ite(x <= 5, 1, 1 / x)", "x <= 5 or sqrt(x) >= 0",
	}
	for _, src := range bad {
		if v, err := MustParse(src).EvalInterval(box); err == nil {
			t.Errorf("%s over x in [-1, 2] = %v, want an error", src, v)
		}
	}
	for _, src := range []string{"1 / (x + 2)", "sqrt(x + 1.5)", "log(x + 1.5)", "(x + 3) ^ -2", "tan(x / 4)", "ite(x <= 5, 1, 2)"} {
		if _, err := MustParse(src).EvalInterval(box); err != nil {
			t.Errorf("%s over x in [-1, 2]: %v", src, err)
		}
	}
	if _, err := MustParse("x + 1").EvalInterval(IEnv{"x": interval.Empty()}); err == nil ||
		!strings.Contains(err.Error(), "empty") {
		t.Errorf("empty input interval: err = %v", err)
	}
}
