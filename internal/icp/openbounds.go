package icp

import (
	"math"

	"icpic3/internal/interval"
)

// Openness propagation through contractors.
//
// Domains carry open/closed endpoint flags (strict bounds).  Interval
// arithmetic with outward rounding is sound with all endpoints treated as
// closed, but it loses the strictness information that lets the solver
// refute boundary cases such as "x <= 5 and x > 5".  For the linear
// operations (addition/subtraction, negation, multiplication) we can do
// better: when an endpoint computation is *exact* in floating point
// (detected with 2Sum / FMA), the resulting endpoint inherits openness
// from its operands; when it is inexact we fall back to the outward-
// rounded closed endpoint.  This mirrors iSAT3's exact handling of strict
// simple bounds while staying sound.

// ept is an endpoint with an openness flag.
type ept struct {
	v    float64
	open bool
}

// twoSum computes a+b and reports whether the float sum is exact.
func twoSum(a, b float64) (float64, bool) {
	s := a + b
	if s-s != 0 { // ±Inf or NaN
		return s, false
	}
	bv := s - a
	av := s - bv
	return s, a-av == 0 && b-bv == 0
}

// mulP computes a*b with the interval convention 0 * inf = 0, and reports
// exactness.
func mulP(a, b float64) (float64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if math.IsInf(p, 0) || math.IsNaN(p) {
		return p, false
	}
	return p, math.FMA(a, b, -p) == 0
}

// sumLo returns the lower enclosure endpoint of a+b with openness.
func sumLo(a, b ept) ept {
	s, exact := twoSum(a.v, b.v)
	if !exact {
		return ept{interval.NextDown(s), false}
	}
	return ept{s, a.open || b.open}
}

// sumHi returns the upper enclosure endpoint of a+b with openness.
func sumHi(a, b ept) ept {
	s, exact := twoSum(a.v, b.v)
	if !exact {
		return ept{interval.NextUp(s), false}
	}
	return ept{s, a.open || b.open}
}

// subLo returns the lower enclosure endpoint of a-b (b is the upper
// endpoint of the subtrahend) with openness.
func subLo(a, b ept) ept { return sumLo(a, ept{-b.v, b.open}) }

// subHi returns the upper enclosure endpoint of a-b (b is the lower
// endpoint of the subtrahend) with openness.
func subHi(a, b ept) ept { return sumHi(a, ept{-b.v, b.open}) }

// negOf flips an endpoint to the other side (always exact).
func negOf(a ept) ept { return ept{-a.v, a.open} }

// mulCornerLo / mulCornerHi combine the four corner products of two
// endpoint pairs into the enclosure endpoints of x*y with openness.
// Extrema of the bilinear product over a box are attained at corners, so
// corner-based openness is exact.
func mulCorners(xlo, xhi, ylo, yhi ept) (lo, hi ept) {
	corners := [4][2]ept{{xlo, ylo}, {xlo, yhi}, {xhi, ylo}, {xhi, yhi}}
	first := true
	for _, c := range corners {
		p, exact := mulP(c[0].v, c[1].v)
		var cl, ch ept
		switch {
		case !exact:
			cl, ch = ept{interval.NextDown(p), false}, ept{interval.NextUp(p), false}
		case p == 0:
			// a zero product can be attained away from corners whenever a
			// factor interval contains an interior zero; stay closed
			cl, ch = ept{0, false}, ept{0, false}
		default:
			open := c[0].open || c[1].open
			cl, ch = ept{p, open}, ept{p, open}
		}
		if first {
			lo, hi = cl, ch
			first = false
			continue
		}
		lo = minEpt(lo, cl)
		hi = maxEpt(hi, ch)
	}
	return lo, hi
}

// minEpt picks the smaller lower endpoint; on ties, open only if both open.
func minEpt(a, b ept) ept {
	if a.v < b.v {
		return a
	}
	if b.v < a.v {
		return b
	}
	return ept{a.v, a.open && b.open}
}

// maxEpt picks the larger upper endpoint; on ties, open only if both open.
func maxEpt(a, b ept) ept {
	if a.v > b.v {
		return a
	}
	if b.v > a.v {
		return b
	}
	return ept{a.v, a.open && b.open}
}

// loEpt / hiEpt read a variable's current endpoints with openness.
func (s *Solver) loEpt(v int32) ept { return ept{s.lo[v], s.loOpen[v]} }
func (s *Solver) hiEpt(v int32) ept { return ept{s.hi[v], s.hiOpen[v]} }
