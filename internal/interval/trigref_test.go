package interval

import (
	"math"
	"math/rand"
	"testing"
)

// Reference implementations of the trig contractors: the closure-based
// bisection that re-encloses every tested sub-interval from scratch, with
// the forward enclosures written out in full.  The production contractors
// cache endpoint values and exit early, and must agree with these bit for
// bit on every input — the ICP trail, and so the whole search, depends on
// the exact boxes they return.

func refSin(v Interval) Interval {
	if v.IsEmpty() {
		return Empty()
	}
	if v.Width() >= 2*math.Pi {
		return Interval{-1, 1}
	}
	lo := math.Min(math.Sin(v.Lo), math.Sin(v.Hi))
	hi := math.Max(math.Sin(v.Lo), math.Sin(v.Hi))
	if crossesPhase(v, math.Pi/2) {
		hi = 1
	}
	if crossesPhase(v, -math.Pi/2) {
		lo = -1
	}
	res := outward(lo, hi)
	if res.Lo < -1 {
		res.Lo = -1
	}
	if res.Hi > 1 {
		res.Hi = 1
	}
	return res
}

// refCos shifts by an enclosure of π/2: the float64 nearest π/2 lies
// below it, and shifting by that point alone misses cos near its zeros.
func refCos(v Interval) Interval {
	return refSin(v.Add(Interval{math.Pi / 2, math.Nextafter(math.Pi/2, math.Inf(1))}))
}

func refTan(v Interval) Interval {
	if v.IsEmpty() {
		return Empty()
	}
	if v.Width() >= math.Pi || crossesPhase(v, math.Pi/2) || crossesPhase(v, -math.Pi/2) {
		return Entire()
	}
	return outward(math.Tan(v.Lo), math.Tan(v.Hi))
}

func refInvSin(z, x Interval) Interval {
	if z.IsEmpty() || x.IsEmpty() {
		return Empty()
	}
	zz := z.Intersect(Interval{-1, 1})
	if zz.IsEmpty() {
		return Empty()
	}
	if x.Width() >= math.Pi || math.IsInf(x.Lo, 0) || math.IsInf(x.Hi, 0) {
		return x
	}
	return shrinkByBisection(x, func(p Interval) bool {
		return !refSin(p).Intersect(zz).IsEmpty()
	})
}

func refInvCos(z, x Interval) Interval {
	if z.IsEmpty() || x.IsEmpty() {
		return Empty()
	}
	zz := z.Intersect(Interval{-1, 1})
	if zz.IsEmpty() {
		return Empty()
	}
	if x.Width() >= math.Pi || math.IsInf(x.Lo, 0) || math.IsInf(x.Hi, 0) {
		return x
	}
	return shrinkByBisection(x, func(p Interval) bool {
		return !refCos(p).Intersect(zz).IsEmpty()
	})
}

func refInvTan(z, x Interval) Interval {
	if z.IsEmpty() || x.IsEmpty() {
		return Empty()
	}
	if x.Width() >= math.Pi || math.IsInf(x.Lo, 0) || math.IsInf(x.Hi, 0) {
		return x
	}
	return shrinkByBisection(x, func(p Interval) bool {
		return !refTan(p).Intersect(z).IsEmpty()
	})
}

// shrinkByBisection trims the left and right ends of x, keeping any
// sub-interval on which feasible() holds.  feasible must be a sound
// over-approximate test (true whenever a solution may exist).
func shrinkByBisection(x Interval, feasible func(Interval) bool) Interval {
	if !feasible(x) {
		return Empty()
	}
	const steps = 16
	lo, hi := x.Lo, x.Hi
	// shrink from the left
	l, r := lo, hi
	for i := 0; i < steps && r-l > 0; i++ {
		m := l/2 + r/2
		if feasible(Interval{l, m}) {
			r = m
		} else {
			l = m
		}
	}
	newLo := l
	// shrink from the right
	l, r = newLo, hi
	for i := 0; i < steps && r-l > 0; i++ {
		m := l/2 + r/2
		if feasible(Interval{m, r}) {
			l = m
		} else {
			r = m
		}
	}
	newHi := r
	res := Interval{newLo, newHi}
	if res.IsEmpty() {
		return Empty()
	}
	return res
}

// trigCase is one function under differential test: the production
// forward enclosure and projection next to their references.
type trigCase struct {
	name         string
	fwd, refFwd  func(Interval) Interval
	proj, refInv func(z, x Interval) Interval
}

var trigCases = []trigCase{
	{"sin", Interval.Sin, refSin, InvSin, refInvSin},
	{"cos", Interval.Cos, refCos, InvCos, refInvCos},
	{"tan", Interval.Tan, refTan, InvTan, refInvTan},
}

// sameBits reports whether a and b have identical endpoint bit patterns
// (so -0 and +0 differ, and NaNs compare by payload).
func sameBits(a, b Interval) bool {
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
}

// check compares the production function against its reference on
// (z, x) and reports a disagreement.
func (c trigCase) check(t *testing.T, z, x Interval) bool {
	t.Helper()
	if got, want := c.fwd(x), c.refFwd(x); !sameBits(got, want) {
		t.Errorf("%s(%#v) = %#v, reference %#v", c.name, x, got, want)
		return false
	}
	if got, want := c.proj(z, x), c.refInv(z, x); !sameBits(got, want) {
		t.Errorf("Inv%s(z=%#v, x=%#v) = %#v, reference %#v", c.name, z, x, got, want)
		return false
	}
	return true
}

// randTrigX draws the domain of x from a mix of shapes chosen to reach
// every branch of the contractors: narrow, just under and over the π
// cut-off, unbounded, empty, point, straddling an extremum or a pole,
// huge magnitudes and subnormals.
func randTrigX(r *rand.Rand) Interval {
	width := func() float64 { return math.Pow(10, -12*r.Float64()) * math.Pi * r.Float64() }
	around := func(c, w float64) Interval {
		f := r.Float64()
		return Interval{c - f*w, c + (1-f)*w}
	}
	switch r.Intn(14) {
	case 0, 1, 2: // narrow, anywhere in a few periods
		return around((r.Float64()-0.5)*40, width())
	case 3: // width at least π
		return around((r.Float64()-0.5)*40, math.Pi*(1+3*r.Float64()))
	case 4: // width just below π
		return around((r.Float64()-0.5)*40, math.Nextafter(math.Pi, 0)*(1-1e-9*r.Float64()))
	case 5: // unbounded on one or both sides
		c := (r.Float64() - 0.5) * 40
		switch r.Intn(3) {
		case 0:
			return Interval{math.Inf(-1), c}
		case 1:
			return Interval{c, math.Inf(1)}
		}
		return Entire()
	case 6: // empty, canonical or not
		if r.Intn(2) == 0 {
			return Empty()
		}
		c := (r.Float64() - 0.5) * 40
		return Interval{c, c - 1}
	case 7: // a point
		return Point((r.Float64() - 0.5) * 40)
	case 8: // straddles an extremum of sin/cos or a pole of tan
		k := float64(r.Intn(21) - 10)
		return around(math.Pi/2+k*math.Pi/2, width())
	case 9: // huge magnitude (argument reduction, coarse ulps)
		c := math.Ldexp(r.Float64()+0.5, 20+r.Intn(32))
		if r.Intn(2) == 0 {
			c = -c
		}
		return around(c, math.Max(width(), 4*math.Abs(c)*1e-16))
	case 10: // subnormal and signed-zero endpoints
		d := math.SmallestNonzeroFloat64
		lo := d * float64(r.Intn(9)-4)
		hi := lo + d*float64(r.Intn(5))
		if lo == 0 && r.Intn(2) == 0 {
			lo = math.Copysign(0, -1)
		}
		return Interval{lo, hi}
	case 11: // huge magnitude around a pole of tan, which the phase checks
		// may miss, leaving a sub-interval with an empty enclosure
		c := math.Ldexp(r.Float64()+0.5, 30+r.Intn(22))
		c = (math.Round(c/math.Pi) + 0.5) * math.Pi
		return around(c, 0.5*r.Float64()+4*c*1e-16)
	case 12: // 2^8..2^19 ulps wide: the 16 halvings get down to single
		// ulps, where midpoints collide with the ends
		c := (r.Float64() - 0.5) * 40
		ulp := math.Nextafter(math.Abs(c), math.Inf(1)) - math.Abs(c)
		return around(c, math.Ldexp(ulp, 8+r.Intn(12)))
	}
	// ends near a multiple of π/2, where the phase checks round
	k := float64(r.Intn(41) - 20)
	c := k * math.Pi / 2
	return Interval{c, c + width()}
}

// randTrigZ draws z relative to img, the forward image of x: a
// superset, disjoint above or below, cutting one end only, strictly
// inside, a point, empty, or unrelated.  An unbounded image (x across a
// pole of tan) is sometimes matched by an unbounded z.
func randTrigZ(r *rand.Rand, img Interval) Interval {
	if img.IsEmpty() || math.IsInf(img.Lo, 0) || math.IsInf(img.Hi, 0) {
		if r.Intn(4) == 0 {
			return Entire()
		}
		img = Interval{-1, 1}
	}
	w := img.Hi - img.Lo
	pad := w*r.Float64() + 1e-9
	in := func() float64 { return img.Lo + r.Float64()*w }
	switch r.Intn(9) {
	case 0: // superset
		return Interval{img.Lo - pad*r.Float64(), img.Hi + pad*r.Float64()}
	case 1: // disjoint above
		return Interval{img.Hi + pad, img.Hi + 2*pad}
	case 2: // disjoint below
		return Interval{img.Lo - 2*pad, img.Lo - pad}
	case 3: // cuts the lower end only
		return Interval{in(), img.Hi + pad}
	case 4: // cuts the upper end only
		return Interval{img.Lo - pad, in()}
	case 5: // strictly inside
		a, b := in(), in()
		if a > b {
			a, b = b, a
		}
		return Interval{a, b}
	case 6:
		return Point(in())
	case 7:
		if r.Intn(2) == 0 {
			return Empty()
		}
		return Entire()
	}
	a, b := (r.Float64()-0.5)*4, (r.Float64()-0.5)*4
	if a > b {
		a, b = b, a
	}
	return Interval{a, b}
}

// trigPinned holds inputs on which a plausible shortcut goes wrong; each
// is checked against every function.
var trigPinned = []struct{ z, x Interval }{
	// x straddles a pole of tan that crossesPole misses on a sub-interval,
	// whose enclosure is then empty: the reference trims x although the
	// enclosure of x (entire) lies inside z.
	{Entire(), Interval{8.416038624666985e+14, 8.416038624666989e+14}},
	// Bisection at ulp scale: reusing a Cos midpoint evaluated as an upper
	// end as the next lower end (the π/2 shift rounds the two differently)
	// moves the lower bound by one ulp.
	{Interval{-0.9937527621528272, -0.9937527621528048}, Interval{-3.0297556886029113, -3.0297556886024446}},
}

// TestTrigContractorsMatchReference checks InvSin, InvCos and InvTan (and
// the forward Sin, Cos, Tan) bit for bit against the reference bisection
// on a million seeded (z, x) pairs per function.
func TestTrigContractorsMatchReference(t *testing.T) {
	pairs := 1_000_000
	if testing.Short() {
		pairs = 50_000
	}
	for _, c := range trigCases {
		for _, p := range trigPinned {
			c.check(t, p.z, p.x)
		}
		r := rand.New(rand.NewSource(12))
		for i := 0; i < pairs; i++ {
			x := randTrigX(r)
			if !c.check(t, randTrigZ(r, c.refFwd(x)), x) {
				break
			}
		}
	}
}

// TestTrigEarlyExitAndCutsCovered pins that the generator reaches every
// outcome of the contractor — x returned untouched (the early exit), x
// trimmed, and x emptied — so the differential above is not vacuous.
func TestTrigEarlyExitAndCutsCovered(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var same, trimmed, empty int
	for i := 0; i < 20_000; i++ {
		x := randTrigX(r)
		if x.IsEmpty() || x.Width() >= math.Pi || math.IsInf(x.Lo, 0) || math.IsInf(x.Hi, 0) {
			continue
		}
		got := InvSin(randTrigZ(r, x.Sin()), x)
		switch {
		case got.IsEmpty():
			empty++
		case sameBits(got, x):
			same++
		default:
			trimmed++
		}
	}
	if same == 0 || trimmed == 0 || empty == 0 {
		t.Errorf("outcomes: %d unchanged, %d trimmed, %d empty; want all nonzero", same, trimmed, empty)
	}
}

func TestInvSinAllocs(t *testing.T) {
	z, x := New(0.2, 0.9), New(0.1, 2.5)
	if n := testing.AllocsPerRun(100, func() { InvSin(z, x) }); n != 0 {
		t.Errorf("InvSin allocates %v times per call, want 0", n)
	}
}

// BenchmarkInvSin projects over a fixed seeded mix of narrow domains and
// images: untouched (early exit), trimmed at one or both ends, and empty.
func BenchmarkInvSin(b *testing.B) {
	r := rand.New(rand.NewSource(14))
	var zs, xs []Interval
	for len(xs) < 256 {
		x := around0(r)
		zs = append(zs, randTrigZ(r, x.Sin()))
		xs = append(xs, x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(xs)
		benchSink = InvSin(zs[j], xs[j])
	}
}

// benchSink keeps the benchmarked call from being optimized away.
var benchSink Interval

// around0 draws a narrow domain of the size the pendulum models contract:
// width up to 1 around an angle in [-2, 2].
func around0(r *rand.Rand) Interval {
	c, w := (r.Float64()-0.5)*4, r.Float64()
	return Interval{c - w/2, c + w/2}
}

// FuzzInvTrigEquiv checks the production contractors against the
// reference bisection on fuzzer-chosen endpoints.
func FuzzInvTrigEquiv(f *testing.F) {
	f.Add(0.2, 0.9, 0.1, 2.5)
	f.Add(-1.0, 1.0, -0.5, 0.5)
	f.Add(0.5, 2.0, 1.5, 1.7)
	f.Add(-0.3, -0.2, 3.0, 3.3)
	f.Add(0.0, 0.0, math.Copysign(0, -1), 0.0)
	f.Add(0.1, 0.2, 1e15, 1e15+1)
	for _, p := range trigPinned {
		f.Add(p.z.Lo, p.z.Hi, p.x.Lo, p.x.Hi)
	}
	f.Fuzz(func(t *testing.T, zlo, zhi, xlo, xhi float64) {
		for _, c := range trigCases {
			c.check(t, Interval{zlo, zhi}, Interval{xlo, xhi})
		}
	})
}
