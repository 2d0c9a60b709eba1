package interval

import "math"

// Tan returns an enclosure of {tan(a) : a in v, a not at a pole}.
// Intervals containing a pole yield the entire line.
func (v Interval) Tan() Interval {
	if v.IsEmpty() {
		return Empty()
	}
	if crossesPole(v) {
		return Entire()
	}
	return outward(math.Tan(v.Lo), math.Tan(v.Hi))
}

// crossesPole reports whether the non-empty v may contain a pole of tan.
func crossesPole(v Interval) bool {
	// poles at π/2 + kπ: the 2π-periodic phase check must cover both
	// residues π/2 and -π/2
	return v.Width() >= math.Pi || crossesPhase(v, math.Pi/2) || crossesPhase(v, -math.Pi/2)
}

// Atan returns an enclosure of {atan(a) : a in v} ⊆ (-π/2, π/2).
func (v Interval) Atan() Interval {
	if v.IsEmpty() {
		return Empty()
	}
	res := outward(math.Atan(v.Lo), math.Atan(v.Hi))
	half := math.Pi / 2
	if res.Lo < -half {
		res.Lo = -half
	}
	if res.Hi > half {
		res.Hi = half
	}
	return res
}

// Tanh returns an enclosure of {tanh(a) : a in v} ⊆ [-1, 1].
func (v Interval) Tanh() Interval {
	if v.IsEmpty() {
		return Empty()
	}
	res := outward(math.Tanh(v.Lo), math.Tanh(v.Hi))
	if res.Lo < -1 {
		res.Lo = -1
	}
	if res.Hi > 1 {
		res.Hi = 1
	}
	return res
}

// InvTan projects z = tan(x) onto x given x's current domain.  As with
// InvSin, contraction happens only when x is narrower than one period.
func InvTan(z, x Interval) Interval {
	if z.IsEmpty() || x.IsEmpty() {
		return Empty()
	}
	if x.Width() >= math.Pi || math.IsInf(x.Lo, 0) || math.IsInf(x.Hi, 0) {
		return x
	}
	return trigTan.contract(z, x)
}

// trigFn names the function a trig projection contracts against.
type trigFn uint8

const (
	trigSin trigFn = iota
	trigCos
	trigTan
)

// trigEnd caches the function at one endpoint of a sub-interval: arg is
// the endpoint as the forward enclosure sees it, val the function there.
type trigEnd struct{ arg, val float64 }

// at evaluates f at a as the lower (upper = false) or the upper endpoint
// of a sub-interval.  Cos is Sin of x shifted by π/2, and the shift rounds
// a lower endpoint down and an upper one up (see Cos and Add), so its two
// sides see different arguments; Sin and Tan see a itself on both.
func (f trigFn) at(a float64, upper bool) trigEnd {
	switch f {
	case trigCos:
		if upper {
			a = up(a + math.Pi/2)
		} else {
			a = down(a + math.Pi/2)
		}
		return trigEnd{a, math.Sin(a)}
	case trigTan:
		return trigEnd{a, math.Tan(a)}
	}
	return trigEnd{a, math.Sin(a)}
}

// flip re-reads e, evaluated at a as one side, for a as the other side:
// free for Sin and Tan, a fresh evaluation for Cos.
func (f trigFn) flip(a float64, e trigEnd, upper bool) trigEnd {
	if f != trigCos {
		return e
	}
	return f.at(a, upper)
}

// hull returns the forward enclosure of f over the sub-interval with the
// cached endpoints lo and hi: bit for bit what Sin, Cos or Tan returns,
// given a non-empty sub-interval narrower than π.
func (f trigFn) hull(lo, hi trigEnd) Interval {
	v := Interval{lo.arg, hi.arg}
	if f != trigTan {
		return sinHull(v, lo.val, hi.val)
	}
	if crossesPole(v) {
		return Entire()
	}
	return outward(lo.val, hi.val)
}

// holds reports whether every enclosure with endpoint e is sure to meet z:
// Sin and Cos enclosures always contain their endpoint values (min/max,
// then outward), and z ⊆ [-1, 1] keeps the final clamp from cutting them
// off.  A Tan enclosure is empty when a pole slips past crossesPole, so Tan
// never qualifies.
func (f trigFn) holds(z Interval, e trigEnd) bool {
	return f != trigTan && z.Contains(e.val)
}

// contract trims the left and right ends of x by 16 bisection steps each,
// keeping every sub-interval whose forward enclosure meets z.  x must be
// finite, non-empty and narrower than π, z non-empty (and within [-1, 1]
// for Sin and Cos).
//
// The result is bit-identical to re-enclosing each tested sub-interval
// from scratch, with far fewer evaluations:
//   - every step evaluates f once, at the midpoint: the fixed end of the
//     tested half keeps its cached value, and a midpoint that becomes the
//     new fixed end is re-read with flip;
//   - an end whose value z holds is left alone without bisecting, since
//     every half the bisection would test from that side keeps that end,
//     so every test passes (see holds).  When z holds both ends — always
//     the case when the enclosure of x lies inside z — x comes back as is.
func (f trigFn) contract(z, x Interval) Interval {
	lo, hi := f.at(x.Lo, false), f.at(x.Hi, true)
	keepLo, keepHi := f.holds(z, lo), f.holds(z, hi)
	if !keepLo && !keepHi && f.hull(lo, hi).Intersect(z).IsEmpty() {
		return Empty()
	}
	const steps = 16
	l, r := x.Lo, x.Hi
	if !keepLo {
		// shrink from the left, testing [l, m]
		for i := 0; i < steps && r-l > 0; i++ {
			m := l/2 + r/2
			mid := f.at(m, true)
			if !f.hull(lo, mid).Intersect(z).IsEmpty() {
				r = m
			} else {
				l = m
				lo = f.flip(m, mid, false)
			}
		}
	}
	newLo := l
	l, r = newLo, x.Hi
	if !keepHi {
		// shrink from the right, testing [m, r]
		for i := 0; i < steps && r-l > 0; i++ {
			m := l/2 + r/2
			mid := f.at(m, false)
			if !f.hull(mid, hi).Intersect(z).IsEmpty() {
				l = m
			} else {
				r = m
				hi = f.flip(m, mid, true)
			}
		}
	}
	res := Interval{newLo, r}
	if res.IsEmpty() {
		return Empty()
	}
	return res
}

// InvAtan projects z = atan(x) onto x: x = tan(z ∩ (-π/2, π/2)).
func InvAtan(z Interval) Interval {
	half := math.Pi / 2
	zz := z.Intersect(Interval{-half, half})
	if zz.IsEmpty() {
		return Empty()
	}
	return zz.Tan()
}

// InvTanh projects z = tanh(x) onto x: x = atanh(z ∩ (-1, 1)).
func InvTanh(z Interval) Interval {
	zz := z.Intersect(Interval{-1, 1})
	if zz.IsEmpty() {
		return Empty()
	}
	lo := math.Inf(-1)
	if zz.Lo > -1 {
		lo = down(math.Atanh(zz.Lo))
	}
	hi := math.Inf(1)
	if zz.Hi < 1 {
		hi = up(math.Atanh(zz.Hi))
	}
	return New(lo, hi)
}
