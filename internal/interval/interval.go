// Package interval implements outward-rounded interval arithmetic over
// float64, the numeric substrate of the CDCL(ICP) solver.
//
// Every forward operation returns an interval that is guaranteed to contain
// the exact real result for all points of the operand intervals.  Go's
// float64 operations are correctly rounded (IEEE 754), so widening each
// computed endpoint by one ulp in the outward direction is a sound (if
// slightly conservative) enclosure.
//
// The package also provides the *inverse* (backward) projections used by
// HC4-revise contraction: e.g. for the constraint z = x + y, InvAddX
// computes the tightest interval enclosure of { x : x + y = z } from the
// enclosures of z and y.
package interval

import (
	"fmt"
	"math"
)

// Interval is a closed interval [Lo, Hi] over the extended reals.
// The empty interval is represented canonically by Empty() (Lo = +Inf,
// Hi = -Inf); any interval with Lo > Hi is treated as empty.
type Interval struct {
	Lo, Hi float64
}

// Empty returns the canonical empty interval.
func Empty() Interval { return Interval{math.Inf(1), math.Inf(-1)} }

// Entire returns the interval covering the whole real line.
func Entire() Interval { return Interval{math.Inf(-1), math.Inf(1)} }

// Point returns the degenerate interval [v, v].
func Point(v float64) Interval { return Interval{v, v} }

// New returns the interval [lo, hi]; if lo > hi the result is empty.
func New(lo, hi float64) Interval {
	if lo > hi || math.IsNaN(lo) || math.IsNaN(hi) {
		return Empty()
	}
	return Interval{lo, hi}
}

// IsEmpty reports whether v contains no points.
func (v Interval) IsEmpty() bool { return v.Lo > v.Hi || math.IsNaN(v.Lo) || math.IsNaN(v.Hi) }

// IsPoint reports whether v is a single point.
func (v Interval) IsPoint() bool { return v.Lo == v.Hi }

// IsEntire reports whether v is (-inf, +inf).
func (v Interval) IsEntire() bool { return math.IsInf(v.Lo, -1) && math.IsInf(v.Hi, 1) }

// Contains reports whether x lies in v.
func (v Interval) Contains(x float64) bool { return v.Lo <= x && x <= v.Hi }

// ContainsInterval reports whether w is a subset of v.
func (v Interval) ContainsInterval(w Interval) bool {
	if w.IsEmpty() {
		return true
	}
	return v.Lo <= w.Lo && w.Hi <= v.Hi
}

// Width returns Hi-Lo (0 for points, +Inf for unbounded, NaN-free).
// The width of an empty interval is 0.
func (v Interval) Width() float64 {
	if v.IsEmpty() {
		return 0
	}
	w := v.Hi - v.Lo
	if math.IsNaN(w) { // inf - inf when Lo = Hi = ±Inf
		return 0
	}
	return w
}

// Mid returns a finite midpoint of v suitable as a split point.
// For half-unbounded intervals it returns a large finite magnitude.
func (v Interval) Mid() float64 {
	if v.IsEmpty() {
		return math.NaN()
	}
	switch {
	case v.IsEntire():
		return 0
	case math.IsInf(v.Lo, -1):
		if v.Hi > 0 {
			return 0
		}
		return v.Hi*2 - 1
	case math.IsInf(v.Hi, 1):
		if v.Lo < 0 {
			return 0
		}
		return v.Lo*2 + 1
	}
	m := v.Lo/2 + v.Hi/2 // avoids overflow of (Lo+Hi)/2
	if m < v.Lo {
		m = v.Lo
	}
	if m > v.Hi {
		m = v.Hi
	}
	return m
}

// Mag returns the maximum absolute value over v (the magnitude).
func (v Interval) Mag() float64 {
	if v.IsEmpty() {
		return 0
	}
	return max(math.Abs(v.Lo), math.Abs(v.Hi))
}

// Intersect returns the intersection of v and w.
func (v Interval) Intersect(w Interval) Interval {
	return New(max(v.Lo, w.Lo), min(v.Hi, w.Hi))
}

// Hull returns the smallest interval containing both v and w.
func (v Interval) Hull(w Interval) Interval {
	if v.IsEmpty() {
		return w
	}
	if w.IsEmpty() {
		return v
	}
	return Interval{min(v.Lo, w.Lo), max(v.Hi, w.Hi)}
}

// Equal reports whether v and w denote the same set.
func (v Interval) Equal(w Interval) bool {
	if v.IsEmpty() && w.IsEmpty() {
		return true
	}
	return v.Lo == w.Lo && v.Hi == w.Hi
}

// String renders the interval in bracket notation.
func (v Interval) String() string {
	if v.IsEmpty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%g, %g]", v.Lo, v.Hi)
}

// NextUp returns the least float64 above x: math.Nextafter(x, +Inf),
// bit for bit, but small enough to inline.  It rounds a computed upper
// endpoint outward.
func NextUp(x float64) float64 {
	switch {
	case x != x:
		return math.NaN()
	case x > math.MaxFloat64:
		return x
	case x == 0:
		return math.SmallestNonzeroFloat64
	case x > 0:
		return math.Float64frombits(math.Float64bits(x) + 1)
	}
	return math.Float64frombits(math.Float64bits(x) - 1)
}

// NextDown returns the greatest float64 below x: math.Nextafter(x, -Inf),
// bit for bit.  It rounds a computed lower endpoint outward.
func NextDown(x float64) float64 {
	switch {
	case x != x:
		return math.NaN()
	case x < -math.MaxFloat64:
		return x
	case x == 0:
		return -math.SmallestNonzeroFloat64
	case x < 0:
		return math.Float64frombits(math.Float64bits(x) + 1)
	}
	return math.Float64frombits(math.Float64bits(x) - 1)
}

// outward widens [lo, hi] by one ulp on each side and normalizes NaNs that
// can appear from inf arithmetic (e.g. inf + -inf) into the safe direction.
func outward(lo, hi float64) Interval {
	if math.IsNaN(lo) {
		lo = math.Inf(-1)
	}
	if math.IsNaN(hi) {
		hi = math.Inf(1)
	}
	return Interval{NextDown(lo), NextUp(hi)}
}

// Add returns an enclosure of {a+b : a in v, b in w}.
func (v Interval) Add(w Interval) Interval {
	if v.IsEmpty() || w.IsEmpty() {
		return Empty()
	}
	return outward(v.Lo+w.Lo, v.Hi+w.Hi)
}

// Sub returns an enclosure of {a-b : a in v, b in w}.
func (v Interval) Sub(w Interval) Interval {
	if v.IsEmpty() || w.IsEmpty() {
		return Empty()
	}
	return outward(v.Lo-w.Hi, v.Hi-w.Lo)
}

// Neg returns {-a : a in v}.
func (v Interval) Neg() Interval {
	if v.IsEmpty() {
		return Empty()
	}
	return Interval{-v.Hi, -v.Lo}
}

// mulPoint multiplies endpoints treating 0 * ±inf as 0 (the correct
// convention for interval multiplication: the factor 0 annihilates).
func mulPoint(a, b float64) float64 {
	p := a * b
	if math.IsNaN(p) && (a == 0 || b == 0) {
		return 0
	}
	return p
}

// Mul returns an enclosure of {a*b : a in v, b in w}.
func (v Interval) Mul(w Interval) Interval {
	if v.IsEmpty() || w.IsEmpty() {
		return Empty()
	}
	p1 := mulPoint(v.Lo, w.Lo)
	p2 := mulPoint(v.Lo, w.Hi)
	p3 := mulPoint(v.Hi, w.Lo)
	p4 := mulPoint(v.Hi, w.Hi)
	lo := min(min(p1, p2), min(p3, p4))
	hi := max(max(p1, p2), max(p3, p4))
	return outward(lo, hi)
}

// Div returns an enclosure of {a/b : a in v, b in w, b != 0}.
// When w straddles zero the result is the hull of the two branches, which
// may be the entire line.
func (v Interval) Div(w Interval) Interval {
	if v.IsEmpty() || w.IsEmpty() {
		return Empty()
	}
	if w.Lo == 0 && w.Hi == 0 {
		return Empty() // division by the point zero: no values
	}
	if w.Lo > 0 || w.Hi < 0 {
		return v.divNonzero(w)
	}
	// w straddles or touches 0: hull of division by the two sign halves.
	var res Interval = Empty()
	if w.Hi > 0 {
		res = res.Hull(v.divNonzero(Interval{math.SmallestNonzeroFloat64, w.Hi}))
	}
	if w.Lo < 0 {
		res = res.Hull(v.divNonzero(Interval{w.Lo, -math.SmallestNonzeroFloat64}))
	}
	if v.Contains(0) {
		res = res.Hull(Point(0))
	}
	if !res.IsEmpty() && v.Lo <= 0 && v.Hi >= 0 {
		return res
	}
	if w.Lo <= 0 && w.Hi >= 0 && !v.Contains(0) {
		// dividend bounded away from zero, divisor can be arbitrarily
		// small of either sign: quotients reach both infinities.
		return Entire()
	}
	return res
}

func (v Interval) divNonzero(w Interval) Interval {
	p1 := v.Lo / w.Lo
	p2 := v.Lo / w.Hi
	p3 := v.Hi / w.Lo
	p4 := v.Hi / w.Hi
	lo := min(min(p1, p2), min(p3, p4))
	hi := max(max(p1, p2), max(p3, p4))
	return outward(lo, hi)
}

// Sqr returns an enclosure of {a*a : a in v}; tighter than v.Mul(v).
func (v Interval) Sqr() Interval {
	if v.IsEmpty() {
		return Empty()
	}
	a, b := math.Abs(v.Lo), math.Abs(v.Hi)
	hi := max(a, b)
	var lo float64
	if v.Contains(0) {
		lo = 0
	} else {
		lo = min(a, b)
	}
	res := outward(lo*lo, hi*hi)
	if res.Lo < 0 {
		res.Lo = 0
	}
	return res
}

// Sqrt returns an enclosure of {sqrt(a) : a in v, a >= 0}.
func (v Interval) Sqrt() Interval {
	if v.IsEmpty() || v.Hi < 0 {
		return Empty()
	}
	lo := 0.0
	if v.Lo > 0 {
		lo = NextDown(math.Sqrt(v.Lo))
		if lo < 0 {
			lo = 0
		}
	}
	return Interval{lo, NextUp(math.Sqrt(v.Hi))}
}

// Abs returns an enclosure of {|a| : a in v}.
func (v Interval) Abs() Interval {
	if v.IsEmpty() {
		return Empty()
	}
	if v.Lo >= 0 {
		return v
	}
	if v.Hi <= 0 {
		return v.Neg()
	}
	return Interval{0, max(-v.Lo, v.Hi)}
}

// Min returns an enclosure of {min(a,b) : a in v, b in w}.
func (v Interval) Min(w Interval) Interval {
	if v.IsEmpty() || w.IsEmpty() {
		return Empty()
	}
	return Interval{min(v.Lo, w.Lo), min(v.Hi, w.Hi)}
}

// Max returns an enclosure of {max(a,b) : a in v, b in w}.
func (v Interval) Max(w Interval) Interval {
	if v.IsEmpty() || w.IsEmpty() {
		return Empty()
	}
	return Interval{max(v.Lo, w.Lo), max(v.Hi, w.Hi)}
}

// PowInt returns an enclosure of {a^n : a in v} for integer n >= 0.
func (v Interval) PowInt(n int) Interval {
	if v.IsEmpty() {
		return Empty()
	}
	switch {
	case n < 0:
		return Point(1).Div(v.PowInt(-n))
	case n == 0:
		return Point(1)
	case n == 1:
		return v
	case n%2 == 0:
		// even power: monotone on |x|
		a := v.Abs()
		res := Interval{pointPow(a.Lo, n).Lo, pointPow(a.Hi, n).Hi}
		if res.Lo < 0 {
			res.Lo = 0
		}
		return res
	default:
		// odd power: monotone
		return Interval{pointPow(v.Lo, n).Lo, pointPow(v.Hi, n).Hi}
	}
}

// pointPow returns a sound enclosure of x^n (n >= 0) by binary
// exponentiation over outward-rounded interval multiplication, so the
// accumulated rounding error of the float chain is always covered.
func pointPow(x float64, n int) Interval {
	r := Point(1)
	b := Point(x)
	for n > 0 {
		if n&1 == 1 {
			r = r.Mul(b)
		}
		n >>= 1
		if n > 0 {
			b = b.Mul(b)
		}
	}
	return r
}

// ipow computes x^n (n >= 0) by binary exponentiation; used by tests and
// concrete evaluation where exactness is not required.
func ipow(x float64, n int) float64 {
	r := 1.0
	b := x
	for n > 0 {
		if n&1 == 1 {
			r *= b
		}
		b *= b
		n >>= 1
	}
	return r
}

// Exp returns an enclosure of {exp(a) : a in v}.
func (v Interval) Exp() Interval {
	if v.IsEmpty() {
		return Empty()
	}
	lo := NextDown(math.Exp(v.Lo))
	if lo < 0 {
		lo = 0
	}
	return Interval{lo, NextUp(math.Exp(v.Hi))}
}

// Log returns an enclosure of {ln(a) : a in v, a > 0}.
func (v Interval) Log() Interval {
	if v.IsEmpty() || v.Hi <= 0 {
		return Empty()
	}
	lo := math.Inf(-1)
	if v.Lo > 0 {
		lo = NextDown(math.Log(v.Lo))
	}
	return Interval{lo, NextUp(math.Log(v.Hi))}
}

// Sin returns an enclosure of {sin(a) : a in v}.
func (v Interval) Sin() Interval {
	if v.IsEmpty() {
		return Empty()
	}
	if v.Width() >= 2*math.Pi {
		return Interval{-1, 1}
	}
	return sinHull(v, math.Sin(v.Lo), math.Sin(v.Hi))
}

// sinHull is Sin for a non-empty v narrower than 2π, built from the
// already computed endpoint values sLo = sin(v.Lo) and sHi = sin(v.Hi).
func sinHull(v Interval, sLo, sHi float64) Interval {
	// Determine whether the interval crosses a maximum (pi/2 + 2k*pi) or a
	// minimum (-pi/2 + 2k*pi).
	lo := min(sLo, sHi)
	hi := max(sLo, sHi)
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

// Cos returns an enclosure of {cos(a) : a in v}: sin(a + π/2), with the
// shift enclosing π/2 itself.
func (v Interval) Cos() Interval {
	return v.Add(halfPi).Sin()
}

// halfPi encloses π/2.  The float64 nearest to it lies 6e-17 below, more
// than an ulp of cos near its zeros, so a point shift would lose cos there.
var halfPi = Interval{math.Pi / 2, NextUp(math.Pi / 2)}

// crossesPhase reports whether v contains a point phase + 2k*pi for some
// integer k.  Conservative (may report true spuriously near the edges),
// which keeps Sin/Cos sound.
func crossesPhase(v Interval, phase float64) bool {
	if v.IsEmpty() {
		return false
	}
	if math.IsInf(v.Lo, 0) || math.IsInf(v.Hi, 0) {
		return true
	}
	k := math.Ceil((v.Lo - phase) / (2 * math.Pi))
	x := phase + 2*math.Pi*k
	// widen by 2 ulps of the magnitude to absorb rounding in x itself
	slack := 4 * math.Abs(x) * 1e-16
	return x >= v.Lo-slack && x <= v.Hi+slack
}

// --- Inverse projections for HC4-revise -------------------------------

// InvAddX projects z = x + y onto x: returns enclosure of z - y.
func InvAddX(z, y Interval) Interval { return z.Sub(y) }

// InvSubX projects z = x - y onto x: returns enclosure of z + y.
func InvSubX(z, y Interval) Interval { return z.Add(y) }

// InvSubY projects z = x - y onto y: returns enclosure of x - z.
func InvSubY(z, x Interval) Interval { return x.Sub(z) }

// InvMulX projects z = x * y onto x.  If y may be zero and z contains 0,
// x is unconstrained; if y may be zero and z excludes 0, the projection is
// still the entire line minus nothing useful (we return Entire) unless y
// is bounded away from zero.
func InvMulX(z, y Interval) Interval {
	if z.IsEmpty() || y.IsEmpty() {
		return Empty()
	}
	if y.Lo > 0 || y.Hi < 0 {
		return z.Div(y)
	}
	if z.Contains(0) {
		return Entire() // x can be anything when y = 0 solves it
	}
	// y straddles 0 but z excludes 0: y = 0 impossible, quotients unbounded.
	return Entire()
}

// InvSqr projects z = x^2 onto x given the current domain of x: the result
// is the hull of the intersection of ±sqrt(z) with x's sign information.
func InvSqr(z, x Interval) Interval {
	if z.IsEmpty() || x.IsEmpty() {
		return Empty()
	}
	r := z.Sqrt() // [sqrt(max(z.Lo,0)), sqrt(z.Hi)]
	if r.IsEmpty() {
		return Empty()
	}
	pos := r.Intersect(x)
	neg := r.Neg().Intersect(x)
	return pos.Hull(neg)
}

// InvAbs projects z = |x| onto x given x's current domain.
func InvAbs(z, x Interval) Interval {
	if z.IsEmpty() || x.IsEmpty() {
		return Empty()
	}
	zz := z.Intersect(Interval{0, math.Inf(1)})
	if zz.IsEmpty() {
		return Empty()
	}
	pos := zz.Intersect(x)
	neg := zz.Neg().Intersect(x)
	return pos.Hull(neg)
}

// InvSqrt projects z = sqrt(x) onto x: x = z^2 (for z >= 0).
func InvSqrt(z Interval) Interval {
	zz := z.Intersect(Interval{0, math.Inf(1)})
	if zz.IsEmpty() {
		return Empty()
	}
	return zz.Sqr()
}

// InvExp projects z = exp(x) onto x: x = log(z).
func InvExp(z Interval) Interval { return z.Log() }

// InvLog projects z = log(x) onto x: x = exp(z).
func InvLog(z Interval) Interval { return z.Exp() }

// InvPowInt projects z = x^n onto x given x's current domain.
func InvPowInt(z, x Interval, n int) Interval {
	if z.IsEmpty() || x.IsEmpty() {
		return Empty()
	}
	if n == 0 {
		if z.Contains(1) {
			return x
		}
		return Empty()
	}
	if n < 0 {
		// z = x^-m  =>  x^m = 1/z
		return InvPowInt(Point(1).Div(z), x, -n)
	}
	if n%2 == 0 {
		// like InvSqr with n-th root
		zz := z.Intersect(Interval{0, math.Inf(1)})
		if zz.IsEmpty() {
			return Empty()
		}
		r := rootEven(zz, n)
		pos := r.Intersect(x)
		neg := r.Neg().Intersect(x)
		return pos.Hull(neg)
	}
	// odd: monotone bijection over the reals
	return rootOdd(z, n)
}

func rootEven(z Interval, n int) Interval {
	// z >= 0 assumed. principal n-th root, outward rounded.
	lo := 0.0
	if z.Lo > 0 {
		lo = NextDown(math.Pow(z.Lo, 1/float64(n)))
		if lo < 0 {
			lo = 0
		}
	}
	hi := NextUp(math.Pow(z.Hi, 1/float64(n)))
	return New(lo, hi)
}

func rootOdd(z Interval, n int) Interval {
	if z.IsEmpty() {
		return Empty()
	}
	return New(NextDown(oddRoot(z.Lo, n)), NextUp(oddRoot(z.Hi, n)))
}

func oddRoot(x float64, n int) float64 {
	if x >= 0 {
		return math.Pow(x, 1/float64(n))
	}
	return -math.Pow(-x, 1/float64(n))
}

// InvSin projects z = sin(x) onto x given x's current domain.  Because
// arcsine has infinitely many branches we only contract when x's domain is
// narrower than one period; otherwise x is returned unchanged (sound).
func InvSin(z, x Interval) Interval {
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
	// Contract endpoints by a few bisection steps on sin over x.
	return trigSin.contract(zz, x)
}

// InvCos projects z = cos(x) onto x given x's current domain.
func InvCos(z, x Interval) Interval {
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
	return trigCos.contract(zz, x)
}
