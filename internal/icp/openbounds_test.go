package icp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"icpic3/internal/interval"
)

func TestTwoSumExactness(t *testing.T) {
	cases := []struct {
		a, b  float64
		exact bool
	}{
		{1, 2, true},
		{0.5, 0.25, true},
		{1e100, 1, false}, // absorbed
		{0.1, 0.2, false}, // 0.3 is not representable
		{-5, 5, true},
		{0, 0, true},
	}
	for _, c := range cases {
		s, ex := twoSum(c.a, c.b)
		if ex != c.exact {
			t.Errorf("twoSum(%v, %v) exact = %v, want %v", c.a, c.b, ex, c.exact)
		}
		if s != c.a+c.b {
			t.Errorf("twoSum sum mismatch")
		}
	}
	if _, ex := twoSum(math.Inf(1), 1); ex {
		t.Error("inf sum cannot be exact")
	}
}

func TestMulPExactness(t *testing.T) {
	if p, ex := mulP(3, 4); p != 12 || !ex {
		t.Error("3*4")
	}
	if p, ex := mulP(0, math.Inf(1)); p != 0 || !ex {
		t.Error("0*inf must be 0 (interval convention)")
	}
	if _, ex := mulP(0.1, 0.3); ex {
		t.Error("0.1*0.3 is inexact")
	}
	if p, ex := mulP(0.5, 0.25); p != 0.125 || !ex {
		t.Error("powers of two multiply exactly")
	}
}

// TestQuickSumEndpointSound: the endpoint produced by sumLo/sumHi always
// bounds the exact real sum, and openness is claimed only for exact sums.
func TestQuickSumEndpointSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := ept{v: r.Float64()*200 - 100, open: r.Intn(2) == 0}
		b := ept{v: r.Float64()*200 - 100, open: r.Intn(2) == 0}
		lo := sumLo(a, b)
		hi := sumHi(a, b)
		exact := a.v + b.v // float-rounded; true value within 1 ulp
		if lo.v > exact || hi.v < exact {
			return false
		}
		// openness only with exactness (then value matches float sum)
		if lo.open && lo.v != exact {
			return false
		}
		if hi.open && hi.v != exact {
			return false
		}
		// openness requires an open operand
		if lo.open && !(a.open || b.open) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("sum endpoints: %v", err)
	}
}

// TestQuickMulCornersSound: mulCorners encloses all products of the box.
func TestQuickMulCornersSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		span := func() (ept, ept) {
			a := r.Float64()*20 - 10
			b := r.Float64()*20 - 10
			if a > b {
				a, b = b, a
			}
			return ept{v: a, open: r.Intn(2) == 0}, ept{v: b, open: r.Intn(2) == 0}
		}
		xlo, xhi := span()
		ylo, yhi := span()
		lo, hi := mulCorners(xlo, xhi, ylo, yhi)
		for i := 0; i < 30; i++ {
			x := xlo.v + r.Float64()*(xhi.v-xlo.v)
			y := ylo.v + r.Float64()*(yhi.v-ylo.v)
			p := x * y
			if p < lo.v || p > hi.v {
				return false
			}
			// an open endpoint must not be attainable by interior points
			if lo.open && p == lo.v && x != xlo.v && x != xhi.v && y != ylo.v && y != yhi.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Errorf("mulCorners: %v", err)
	}
}

func TestNegOfSubEndpoints(t *testing.T) {
	a := ept{v: 3, open: true}
	n := negOf(a)
	if n.v != -3 || !n.open {
		t.Errorf("negOf = %+v", n)
	}
	// subLo(z, y) = lower endpoint of z - y using y's upper endpoint
	lo := subLo(ept{v: 10, open: false}, ept{v: 4, open: true})
	if lo.v != 6 || !lo.open {
		t.Errorf("subLo = %+v", lo)
	}
	hi := subHi(ept{v: 10, open: true}, ept{v: 4, open: false})
	if hi.v != 6 || !hi.open {
		t.Errorf("subHi = %+v", hi)
	}
}

func TestMinMaxEpt(t *testing.T) {
	a := ept{v: 1, open: true}
	b := ept{v: 1, open: false}
	if m := minEpt(a, b); m.open {
		t.Error("tie openness must be conjunctive")
	}
	if m := maxEpt(a, b); m.open {
		t.Error("tie openness must be conjunctive")
	}
	c := ept{v: 2, open: true}
	if m := minEpt(a, c); m.v != 1 || !m.open {
		t.Errorf("minEpt = %+v", m)
	}
	if m := maxEpt(a, c); m.v != 2 || !m.open {
		t.Errorf("maxEpt = %+v", m)
	}
}

func TestRounding(t *testing.T) {
	x := 1.5
	if interval.NextDown(x) >= x || interval.NextUp(x) <= x {
		t.Error("rounding directions")
	}
	if !math.IsInf(interval.NextDown(math.Inf(-1)), -1) {
		t.Error("inf passthrough")
	}
	if !math.IsNaN(interval.NextUp(math.NaN())) {
		t.Error("nan passthrough")
	}
}

// refTwoSum is twoSum with the non-finite test it had before s-s != 0
// replaced it, kept as the reference.
func refTwoSum(a, b float64) (float64, bool) {
	s := a + b
	if math.IsInf(s, 0) || math.IsNaN(s) {
		return s, false
	}
	bv := s - a
	av := s - bv
	return s, a-av == 0 && b-bv == 0
}

func TestTwoSumMatchesReference(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	check := func(a, b float64) {
		s, ex := twoSum(a, b)
		rs, rex := refTwoSum(a, b)
		if ex != rex || math.Float64bits(s) != math.Float64bits(rs) {
			t.Fatalf("twoSum(%v, %v) = %v, %v; reference %v, %v", a, b, s, ex, rs, rex)
		}
	}
	for _, a := range specials {
		for _, b := range specials {
			check(a, b)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		check(math.Float64frombits(r.Uint64()), math.Float64frombits(r.Uint64()))
		check(randOperand(r), randOperand(r))
	}
}

// randOperand draws a finite float64 with a random mantissa and a binary
// exponent in [-150, 150]; a quarter are small integers, so exact sums and
// products are common.
func randOperand(r *rand.Rand) float64 {
	if r.Intn(4) == 0 {
		return float64(r.Intn(33) - 16)
	}
	return math.Ldexp(r.Float64()*2-1, r.Intn(301)-150)
}

func bigOf(x float64) *big.Float { return new(big.Float).SetPrec(2200).SetFloat64(x) }

// checkEndpointExact asserts that the computed endpoint got encloses the
// exact value e (from below for a lower endpoint), is open only when it
// equals e exactly and openOK allows it, and when inexact sits at most 2
// ulps away.
func checkEndpointExact(t *testing.T, what string, got ept, e *big.Float, lower, openOK bool) {
	t.Helper()
	c := bigOf(got.v).Cmp(e)
	if (lower && c > 0) || (!lower && c < 0) {
		t.Fatalf("%s: endpoint %v does not enclose exact %v", what, got.v, e)
	}
	if got.open && (c != 0 || !openOK) {
		t.Fatalf("%s: endpoint %v open, exact %v, open allowed %v", what, got.v, e, openOK)
	}
	near := bigOf(interval.NextUp(interval.NextUp(got.v)))
	if !lower {
		near = bigOf(interval.NextDown(interval.NextDown(got.v)))
	}
	if c2 := near.Cmp(e); (lower && c2 < 0) || (!lower && c2 > 0) {
		t.Fatalf("%s: endpoint %v more than 2 ulps from exact %v", what, got.v, e)
	}
}

// TestEndpointsExactBig checks sumLo/sumHi and mulCorners against exact
// math/big arithmetic: twoSum and mulP call a result exact exactly when
// the float equals the real value, an endpoint passes an operand's
// openness through only in that case, and every endpoint encloses the
// exact value within 2 ulps.
func TestEndpointsExactBig(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	rept := func() ept { return ept{v: randOperand(r), open: r.Intn(2) == 0} }
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	for i := 0; i < n; i++ {
		a, b := rept(), rept()
		e := new(big.Float).SetPrec(2200).Add(bigOf(a.v), bigOf(b.v))
		s, exact := twoSum(a.v, b.v)
		if isExact := bigOf(s).Cmp(e) == 0; exact != isExact {
			t.Fatalf("twoSum(%v, %v) exact = %v, big says %v", a.v, b.v, exact, isExact)
		}
		openOK := exact && (a.open || b.open)
		lo, hi := sumLo(a, b), sumHi(a, b)
		checkEndpointExact(t, "sumLo", lo, e, true, openOK)
		checkEndpointExact(t, "sumHi", hi, e, false, openOK)
		if lo.open != openOK || hi.open != openOK {
			t.Fatalf("sum of %+v, %+v = %+v, %+v: an exact sum carries the operands' openness, an inexact one none", a, b, lo, hi)
		}

		xlo, xhi, ylo, yhi := rept(), rept(), rept(), rept()
		if xlo.v > xhi.v {
			xlo, xhi = xhi, xlo
		}
		if ylo.v > yhi.v {
			ylo, yhi = yhi, ylo
		}
		lo, hi = mulCorners(xlo, xhi, ylo, yhi)
		var pmin, pmax *big.Float
		openLo, openHi := true, true // may the extremum be reported open?
		for _, c := range [4][2]ept{{xlo, ylo}, {xlo, yhi}, {xhi, ylo}, {xhi, yhi}} {
			p := new(big.Float).SetPrec(2200).Mul(bigOf(c[0].v), bigOf(c[1].v))
			f, exact := mulP(c[0].v, c[1].v)
			if isExact := bigOf(f).Cmp(p) == 0; exact != isExact {
				t.Fatalf("mulP(%v, %v) exact = %v, big says %v", c[0].v, c[1].v, exact, isExact)
			}
			// an attaining corner permits openness only if exact, nonzero
			// and built from an open operand
			ok := exact && p.Sign() != 0 && (c[0].open || c[1].open)
			switch {
			case pmin == nil || p.Cmp(pmin) < 0:
				pmin, openLo = p, ok
			case p.Cmp(pmin) == 0:
				openLo = openLo && ok
			}
			switch {
			case pmax == nil || p.Cmp(pmax) > 0:
				pmax, openHi = p, ok
			case p.Cmp(pmax) == 0:
				openHi = openHi && ok
			}
		}
		checkEndpointExact(t, "mulCorners lo", lo, pmin, true, openLo)
		checkEndpointExact(t, "mulCorners hi", hi, pmax, false, openHi)
	}
}

var benchEpt ept

// BenchmarkSumMulCorners times the openness-tracking endpoint kernels of
// the add and mul contractors: a sumLo, a sumHi and a mulCorners per op,
// over operands of which about a quarter combine exactly.
func BenchmarkSumMulCorners(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	es := make([]ept, 1024)
	for i := range es {
		es[i] = ept{v: randOperand(r), open: r.Intn(2) == 0}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := es[i&1023], es[(i+1)&1023]
		lo, hi := mulCorners(minEpt(a, c), maxEpt(a, c), a, c)
		benchEpt = sumLo(sumLo(a, c), sumHi(lo, hi))
	}
}
