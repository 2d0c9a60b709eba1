package interval

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// refDown and refUp are the outward-rounding helpers NextDown/NextUp
// replaced, kept as the reference: math.Nextafter behind an explicit
// infinity/NaN guard.
func refDown(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return x
	}
	return math.Nextafter(x, math.Inf(-1))
}

func refUp(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return x
	}
	return math.Nextafter(x, math.Inf(1))
}

// roundingSpecials are the inputs where a bit-level successor can go
// wrong: signed zeros, the subnormal range and its boundary with the
// normals, the largest finites, infinities and NaN.
var roundingSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2 * math.SmallestNonzeroFloat64, -2 * math.SmallestNonzeroFloat64,
	0x1p-1022, -0x1p-1022, // smallest normal
	math.Nextafter(0x1p-1022, 0), -math.Nextafter(0x1p-1022, 0), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1, -1, 1.5, -1.5, 0x1p52, -0x1p52,
}

func TestNextUpDownMatchNextafter(t *testing.T) {
	check := func(x float64) {
		if got, want := NextUp(x), math.Nextafter(x, math.Inf(1)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("NextUp(%v [%#016x]) = %#016x, Nextafter gives %#016x", x, math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
		}
		if got, want := NextDown(x), math.Nextafter(x, math.Inf(-1)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("NextDown(%v [%#016x]) = %#016x, Nextafter gives %#016x", x, math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
		}
	}
	for _, x := range roundingSpecials {
		check(x)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(math.Float64frombits(r.Uint64()))
	}
}

// TestNextUpDownMatchOldRounding pins what changed against the replaced
// helpers: nothing on finite inputs, and at the infinities only the
// direction the old guard got wrong.  NextDown(+Inf) is MaxFloat64 (an
// overflowed lower endpoint stands for a finite value above MaxFloat64,
// so +Inf claimed an empty set), and symmetrically NextUp(-Inf).
func TestNextUpDownMatchOldRounding(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100_000; i++ {
		x := math.Float64frombits(r.Uint64())
		if math.IsInf(x, 0) || math.IsNaN(x) {
			continue
		}
		if NextUp(x) != refUp(x) || NextDown(x) != refDown(x) {
			t.Fatalf("%v: NextUp/NextDown %v/%v, old %v/%v", x, NextUp(x), NextDown(x), refUp(x), refDown(x))
		}
	}
	inf := math.Inf(1)
	if NextUp(inf) != refUp(inf) || NextDown(-inf) != refDown(-inf) {
		t.Errorf("NextUp(+Inf), NextDown(-Inf) = %v, %v; old %v, %v", NextUp(inf), NextDown(-inf), refUp(inf), refDown(-inf))
	}
	if NextDown(inf) != math.MaxFloat64 || NextUp(-inf) != -math.MaxFloat64 {
		t.Errorf("NextDown(+Inf), NextUp(-Inf) = %v, %v; want ±MaxFloat64", NextDown(inf), NextUp(-inf))
	}
	if !math.IsNaN(NextUp(math.NaN())) || !math.IsNaN(NextDown(math.NaN())) {
		t.Error("NaN must stay NaN")
	}
}

// TestBuiltinMinMaxMatchMath compares the builtin min/max that replaced
// math.Min/math.Max on every pair from {±0, ±1, ±Inf, NaN}.  Without a
// NaN operand they agree bit for bit, signed zeros included.  With one,
// both give NaN, except that math.Min(-Inf, NaN) is -Inf and
// math.Max(+Inf, NaN) is +Inf.  Only Div's corner quotients can be
// NaN (∞/∞), and their extrema go through outward, which widens a NaN
// lower endpoint to -Inf and a NaN upper endpoint to +Inf, so the
// enclosures are bit-equal there too.  The other call sites compare
// interval endpoints, which New and outward keep free of NaN.
func TestBuiltinMinMaxMatchMath(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN()}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, a := range vals {
		for _, b := range vals {
			gotMin, wantMin := min(a, b), math.Min(a, b)
			gotMax, wantMax := max(a, b), math.Max(a, b)
			if math.IsNaN(a) || math.IsNaN(b) {
				if !math.IsNaN(gotMin) || !math.IsNaN(gotMax) {
					t.Errorf("min/max(%v, %v) = %v, %v; want NaN", a, b, gotMin, gotMax)
				}
				mathInf := math.IsInf(wantMin, -1) || math.IsInf(wantMax, 1)
				if !mathInf && (!math.IsNaN(wantMin) || !math.IsNaN(wantMax)) {
					t.Errorf("math.Min/Max(%v, %v) = %v, %v", a, b, wantMin, wantMax)
				}
			} else if !same(gotMin, wantMin) || !same(gotMax, wantMax) {
				t.Errorf("min/max(%v, %v) = %#016x, %#016x; math gives %#016x, %#016x",
					a, b, math.Float64bits(gotMin), math.Float64bits(gotMax), math.Float64bits(wantMin), math.Float64bits(wantMax))
			}
			got, want := outward(min(a, b), max(a, b)), outward(math.Min(a, b), math.Max(a, b))
			if !same(got.Lo, want.Lo) || !same(got.Hi, want.Hi) {
				t.Errorf("outward over min/max(%v, %v) = %v, math.Min/Max gives %v", a, b, got, want)
			}
		}
	}
}

// exactPrec is wide enough for any exact sum or product of two finite
// float64s, and for a quotient accurate enough to order it against
// every float64.
const exactPrec = 2200

func exactOf(x float64) *big.Float { return new(big.Float).SetPrec(exactPrec).SetFloat64(x) }

// checkEndpoint asserts that the computed endpoint encloses the exact
// value e from the right side (lower: got <= e, upper: got >= e) and
// lies within 2 ulps of it.
func checkEndpoint(t *testing.T, what string, got float64, e *big.Float, lower bool) {
	t.Helper()
	g := exactOf(got)
	if lower {
		if g.Cmp(e) > 0 {
			t.Fatalf("%s: lower endpoint %v above exact %v", what, got, e)
		}
		if exactOf(NextUp(NextUp(got))).Cmp(e) < 0 {
			t.Fatalf("%s: lower endpoint %v more than 2 ulps below exact %v", what, got, e)
		}
		return
	}
	if g.Cmp(e) < 0 {
		t.Fatalf("%s: upper endpoint %v below exact %v", what, got, e)
	}
	if exactOf(NextDown(NextDown(got))).Cmp(e) > 0 {
		t.Fatalf("%s: upper endpoint %v more than 2 ulps above exact %v", what, got, e)
	}
}

// randFinite draws a float64 with a random sign, mantissa and binary
// exponent in [-span, span]; a quarter are small integers, whose sums and
// products are often exact.
func randFinite(r *rand.Rand, span int) float64 {
	if r.Intn(4) == 0 {
		return float64(r.Intn(33) - 16)
	}
	return math.Ldexp(r.Float64()*2-1, r.Intn(2*span+1)-span)
}

func randSpan(r *rand.Rand, span int) Interval {
	a, b := randFinite(r, span), randFinite(r, span)
	return Interval{min(a, b), max(a, b)}
}

func bigMinMax(xs ...*big.Float) (lo, hi *big.Float) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x.Cmp(lo) < 0 {
			lo = x
		}
		if x.Cmp(hi) > 0 {
			hi = x
		}
	}
	return lo, hi
}

// TestEndpointsExact checks each forward operation's endpoints against
// the exact result computed in math/big: the enclosure holds, and it is
// at most 2 ulps wider on each side.  Sampling interior points, as the
// containment tests do, cannot see a missing rounding step; this can.
func TestEndpointsExact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	add := func(a, b float64) *big.Float { return new(big.Float).SetPrec(exactPrec).Add(exactOf(a), exactOf(b)) }
	mul := func(a, b float64) *big.Float { return new(big.Float).SetPrec(exactPrec).Mul(exactOf(a), exactOf(b)) }
	quo := func(a, b float64) *big.Float { return new(big.Float).SetPrec(exactPrec).Quo(exactOf(a), exactOf(b)) }
	for i := 0; i < n; i++ {
		v, w := randSpan(r, 300), randSpan(r, 300)

		got := v.Add(w)
		checkEndpoint(t, "Add lo", got.Lo, add(v.Lo, w.Lo), true)
		checkEndpoint(t, "Add hi", got.Hi, add(v.Hi, w.Hi), false)

		got = v.Sub(w)
		checkEndpoint(t, "Sub lo", got.Lo, add(v.Lo, -w.Hi), true)
		checkEndpoint(t, "Sub hi", got.Hi, add(v.Hi, -w.Lo), false)

		v, w = randSpan(r, 150), randSpan(r, 150)
		got = v.Mul(w)
		lo, hi := bigMinMax(mul(v.Lo, w.Lo), mul(v.Lo, w.Hi), mul(v.Hi, w.Lo), mul(v.Hi, w.Hi))
		checkEndpoint(t, "Mul lo", got.Lo, lo, true)
		checkEndpoint(t, "Mul hi", got.Hi, hi, false)

		if w.Lo > 0 || w.Hi < 0 {
			got = v.Div(w)
			lo, hi = bigMinMax(quo(v.Lo, w.Lo), quo(v.Lo, w.Hi), quo(v.Hi, w.Lo), quo(v.Hi, w.Hi))
			checkEndpoint(t, "Div lo", got.Lo, lo, true)
			checkEndpoint(t, "Div hi", got.Hi, hi, false)
		}

		got = v.Sqr()
		a, b := math.Abs(v.Lo), math.Abs(v.Hi)
		sqLo := mul(min(a, b), min(a, b))
		if v.Contains(0) {
			sqLo = exactOf(0)
		}
		checkEndpoint(t, "Sqr lo", got.Lo, sqLo, true)
		checkEndpoint(t, "Sqr hi", got.Hi, mul(max(a, b), max(a, b)), false)
	}
}

// benchSpans are 1024 finite intervals drawn like TestEndpointsExact's.
func benchSpans() []Interval {
	r := rand.New(rand.NewSource(4))
	xs := make([]Interval, 1024)
	for i := range xs {
		xs[i] = randSpan(r, 150)
	}
	return xs
}

// BenchmarkOutward times the rounding kernel alone: one outward widening
// (NextDown and NextUp) per op.
func BenchmarkOutward(b *testing.B) {
	xs := benchSpans()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := xs[i&1023]
		benchSink = outward(x.Lo, x.Hi)
	}
}

// BenchmarkIntervalMulDiv times one Mul and one Div per op: four corner
// products or quotients, their min/max, and the outward widening each.
func BenchmarkIntervalMulDiv(b *testing.B) {
	xs := benchSpans()
	for i := range xs {
		if xs[i].Contains(0) { // a zero-free divisor takes the four-quotient path
			xs[i] = Interval{1, 2 + xs[i].Width()}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := xs[i&1023], xs[(i+1)&1023]
		benchSink = x.Mul(y).Div(y)
	}
}
