package interval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}

func TestBasicConstructors(t *testing.T) {
	if !Empty().IsEmpty() {
		t.Fatal("Empty() not empty")
	}
	if Empty().Width() != 0 {
		t.Fatalf("empty width = %v", Empty().Width())
	}
	if !Entire().IsEntire() {
		t.Fatal("Entire() not entire")
	}
	if p := Point(3); !p.IsPoint() || p.Lo != 3 {
		t.Fatalf("Point(3) = %v", p)
	}
	if v := New(2, 1); !v.IsEmpty() {
		t.Fatalf("New(2,1) = %v, want empty", v)
	}
	if v := New(math.NaN(), 1); !v.IsEmpty() {
		t.Fatalf("New(NaN,1) = %v, want empty", v)
	}
}

func TestContains(t *testing.T) {
	v := New(-1, 2)
	for _, x := range []float64{-1, 0, 2} {
		if !v.Contains(x) {
			t.Errorf("%v should contain %v", v, x)
		}
	}
	for _, x := range []float64{-1.0001, 2.0001, math.Inf(1)} {
		if v.Contains(x) {
			t.Errorf("%v should not contain %v", v, x)
		}
	}
	if !v.ContainsInterval(New(0, 1)) {
		t.Error("subset check failed")
	}
	if v.ContainsInterval(New(0, 3)) {
		t.Error("superset misreported")
	}
	if !v.ContainsInterval(Empty()) {
		t.Error("empty should be subset of anything")
	}
}

func TestIntersectHull(t *testing.T) {
	a, b := New(0, 2), New(1, 3)
	if got := a.Intersect(b); !got.Equal(New(1, 2)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Hull(b); !got.Equal(New(0, 3)) {
		t.Errorf("Hull = %v", got)
	}
	if got := New(0, 1).Intersect(New(2, 3)); !got.IsEmpty() {
		t.Errorf("disjoint Intersect = %v", got)
	}
	if got := Empty().Hull(a); !got.Equal(a) {
		t.Errorf("Hull with empty = %v", got)
	}
}

func TestMid(t *testing.T) {
	cases := []struct {
		v    Interval
		want float64
	}{
		{New(0, 2), 1},
		{New(-4, -2), -3},
		{Entire(), 0},
		{New(math.Inf(-1), 5), 0},
		{New(math.Inf(-1), -5), -11},
		{New(5, math.Inf(1)), 11},
		{New(-5, math.Inf(1)), 0},
	}
	for _, c := range cases {
		if got := c.v.Mid(); got != c.want {
			t.Errorf("Mid(%v) = %v, want %v", c.v, got, c.want)
		}
		if !c.v.Contains(c.v.Mid()) {
			t.Errorf("Mid(%v) outside interval", c.v)
		}
	}
	if !math.IsNaN(Empty().Mid()) {
		t.Error("Mid(empty) should be NaN")
	}
	// Mid of huge interval must not overflow.
	h := New(-math.MaxFloat64, math.MaxFloat64)
	if m := h.Mid(); math.IsInf(m, 0) || math.IsNaN(m) {
		t.Errorf("Mid overflowed: %v", m)
	}
}

func TestAddSubMulDivPoints(t *testing.T) {
	a, b := Point(3), Point(4)
	if got := a.Add(b); !got.Contains(7) || got.Width() > 1e-9 {
		t.Errorf("3+4 = %v", got)
	}
	if got := a.Sub(b); !got.Contains(-1) {
		t.Errorf("3-4 = %v", got)
	}
	if got := a.Mul(b); !got.Contains(12) {
		t.Errorf("3*4 = %v", got)
	}
	if got := a.Div(b); !got.Contains(0.75) {
		t.Errorf("3/4 = %v", got)
	}
}

func TestMulSigns(t *testing.T) {
	cases := []struct {
		a, b, want Interval
	}{
		{New(1, 2), New(3, 4), New(3, 8)},
		{New(-2, -1), New(3, 4), New(-8, -3)},
		{New(-2, 1), New(3, 4), New(-8, 4)},
		{New(-2, 1), New(-4, 3), New(-6, 8)},
	}
	for _, c := range cases {
		got := c.a.Mul(c.b)
		if !got.ContainsInterval(c.want) {
			t.Errorf("%v * %v = %v, want ⊇ %v", c.a, c.b, got, c.want)
		}
		if got.Width() > c.want.Width()+1e-9 {
			t.Errorf("%v * %v = %v too loose vs %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMulZeroInf(t *testing.T) {
	got := Point(0).Mul(Entire())
	if !got.Contains(0) {
		t.Errorf("0 * entire = %v, must contain 0", got)
	}
	got = New(0, 1).Mul(New(0, math.Inf(1)))
	if !got.Contains(0) || got.IsEmpty() {
		t.Errorf("[0,1]*[0,inf] = %v", got)
	}
}

func TestDivStraddle(t *testing.T) {
	// dividend excludes zero, divisor straddles zero: entire line.
	got := New(1, 2).Div(New(-1, 1))
	if !got.IsEntire() {
		t.Errorf("[1,2]/[-1,1] = %v, want entire", got)
	}
	// dividend contains zero: still everything reachable but must contain 0.
	got = New(-1, 1).Div(New(-1, 1))
	if !got.Contains(0) {
		t.Errorf("[-1,1]/[-1,1] = %v", got)
	}
	// divisor is point zero: empty.
	if got := New(1, 2).Div(Point(0)); !got.IsEmpty() {
		t.Errorf("x/0 = %v, want empty", got)
	}
	// plain negative divisor
	got = New(4, 8).Div(New(-4, -2))
	if !got.ContainsInterval(New(-4, -1)) {
		t.Errorf("[4,8]/[-4,-2] = %v", got)
	}
}

func TestSqrSqrtAbs(t *testing.T) {
	if got := New(-3, 2).Sqr(); !got.ContainsInterval(New(0, 9)) || got.Lo < 0 {
		t.Errorf("[-3,2]^2 = %v", got)
	}
	if got := New(2, 3).Sqr(); !got.Contains(4) || !got.Contains(9) || got.Contains(3.9) {
		t.Errorf("[2,3]^2 = %v", got)
	}
	if got := New(4, 9).Sqrt(); !got.Contains(2) || !got.Contains(3) {
		t.Errorf("sqrt[4,9] = %v", got)
	}
	if got := New(-4, -1).Sqrt(); !got.IsEmpty() {
		t.Errorf("sqrt of negative = %v", got)
	}
	if got := New(-2, 9).Sqrt(); got.Lo != 0 || !got.Contains(3) {
		t.Errorf("sqrt[-2,9] = %v", got)
	}
	if got := New(-3, 2).Abs(); !got.Equal(New(0, 3)) {
		t.Errorf("abs[-3,2] = %v", got)
	}
	if got := New(-3, -2).Abs(); !got.Equal(New(2, 3)) {
		t.Errorf("abs[-3,-2] = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	a, b := New(0, 5), New(2, 3)
	if got := a.Min(b); !got.Equal(New(0, 3)) {
		t.Errorf("min = %v", got)
	}
	if got := a.Max(b); !got.Equal(New(2, 5)) {
		t.Errorf("max = %v", got)
	}
}

func TestPowInt(t *testing.T) {
	v := New(-2, 3)
	if got := v.PowInt(2); !got.ContainsInterval(New(0, 9)) {
		t.Errorf("[-2,3]^2 = %v", got)
	}
	if got := v.PowInt(3); !got.Contains(-8) || !got.Contains(27) {
		t.Errorf("[-2,3]^3 = %v", got)
	}
	if got := v.PowInt(0); !got.Contains(1) {
		t.Errorf("x^0 = %v", got)
	}
	if got := New(2, 2).PowInt(10); !got.Contains(1024) {
		t.Errorf("2^10 = %v", got)
	}
	if got := New(2, 4).PowInt(-1); !got.Contains(0.25) || !got.Contains(0.5) {
		t.Errorf("[2,4]^-1 = %v", got)
	}
}

func TestExpLog(t *testing.T) {
	if got := New(0, 1).Exp(); !got.Contains(1) || !got.Contains(math.E) {
		t.Errorf("exp[0,1] = %v", got)
	}
	if got := New(1, math.E).Log(); !got.Contains(0) || !got.Contains(1) {
		t.Errorf("log[1,e] = %v", got)
	}
	if got := New(-2, -1).Log(); !got.IsEmpty() {
		t.Errorf("log of negative = %v", got)
	}
	if got := New(0, 1).Log(); !math.IsInf(got.Lo, -1) {
		t.Errorf("log[0,1] = %v", got)
	}
}

func TestSinCos(t *testing.T) {
	if got := New(0, math.Pi).Sin(); !got.Contains(0) || !got.Contains(1) {
		t.Errorf("sin[0,pi] = %v", got)
	}
	if got := New(0, 2*math.Pi).Sin(); !got.Contains(-1) || !got.Contains(1) {
		t.Errorf("sin[0,2pi] = %v", got)
	}
	if got := New(0.1, 0.2).Sin(); got.Contains(0.5) {
		t.Errorf("sin[0.1,0.2] too wide: %v", got)
	}
	if got := New(0, 0.1).Cos(); !got.Contains(1) {
		t.Errorf("cos[0,0.1] = %v", got)
	}
	if got := New(math.Pi-0.1, math.Pi+0.1).Cos(); !got.Contains(-1) {
		t.Errorf("cos around pi = %v", got)
	}
	if got := Entire().Sin(); !got.Equal(New(-1, 1)) {
		t.Errorf("sin entire = %v", got)
	}
}

// TestCosEnclosesNearZeros checks Cos and InvCos at points next to the
// zeros of cos, where shifting by the float64 nearest π/2 (6e-17 below
// it) instead of an enclosure of π/2 moves the result by more than an
// ulp of cos.
func TestCosEnclosesNearZeros(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		c := math.Cos(x)
		if got := Point(x).Cos(); !got.Contains(c) {
			t.Fatalf("Point(%v).Cos() = %v misses cos = %v", x, got, c)
		}
		// x as either end of the domain: the contractor's end evaluations
		for _, xs := range []Interval{New(x-0.01, x), New(x, x+0.01)} {
			if got := InvCos(Point(c), xs); !got.Contains(x) {
				t.Fatalf("InvCos(%v, %v) = %v misses %v", c, xs, got, x)
			}
		}
	}
	check(-1.6221038674007273)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		k := float64(r.Intn(9) - 4)
		check((k+0.5)*math.Pi + (r.Float64()-0.5)*0.2)
	}
}

// randInterval generates a finite interval with moderate magnitudes.
func randInterval(r *rand.Rand) Interval {
	a := (r.Float64() - 0.5) * 200
	b := (r.Float64() - 0.5) * 200
	if a > b {
		a, b = b, a
	}
	return Interval{a, b}
}

func randIn(r *rand.Rand, v Interval) float64 {
	if v.IsPoint() {
		return v.Lo
	}
	return v.Lo + r.Float64()*(v.Hi-v.Lo)
}

// TestQuickBinaryContainment checks the fundamental soundness property of
// interval arithmetic: for random intervals and random points inside them,
// the exact result of the operation lies inside the interval result.
func TestQuickBinaryContainment(t *testing.T) {
	ops := []struct {
		name string
		iop  func(a, b Interval) Interval
		fop  func(a, b float64) float64
	}{
		{"add", Interval.Add, func(a, b float64) float64 { return a + b }},
		{"sub", Interval.Sub, func(a, b float64) float64 { return a - b }},
		{"mul", Interval.Mul, func(a, b float64) float64 { return a * b }},
		{"min", Interval.Min, math.Min},
		{"max", Interval.Max, math.Max},
	}
	for _, op := range ops {
		op := op
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b := randInterval(r), randInterval(r)
			res := op.iop(a, b)
			for i := 0; i < 20; i++ {
				x, y := randIn(r, a), randIn(r, b)
				if !res.Contains(op.fop(x, y)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s containment: %v", op.name, err)
		}
	}
}

func TestQuickDivContainment(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randInterval(r), randInterval(r)
		res := a.Div(b)
		for i := 0; i < 20; i++ {
			x, y := randIn(r, a), randIn(r, b)
			if y == 0 {
				continue
			}
			if !res.Contains(x / y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("div containment: %v", err)
	}
}

func TestQuickUnaryContainment(t *testing.T) {
	ops := []struct {
		name string
		iop  func(Interval) Interval
		fop  func(float64) float64
		dom  Interval // restrict inputs
	}{
		{"neg", Interval.Neg, func(x float64) float64 { return -x }, Entire()},
		{"sqr", Interval.Sqr, func(x float64) float64 { return x * x }, Entire()},
		{"abs", Interval.Abs, math.Abs, Entire()},
		{"sqrt", Interval.Sqrt, math.Sqrt, New(0, math.Inf(1))},
		{"exp", Interval.Exp, math.Exp, New(-50, 50)},
		{"log", Interval.Log, math.Log, New(1e-9, math.Inf(1))},
		{"sin", Interval.Sin, math.Sin, Entire()},
		{"cos", Interval.Cos, math.Cos, Entire()},
	}
	for _, op := range ops {
		op := op
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a := randInterval(r).Intersect(op.dom)
			if a.IsEmpty() {
				return true
			}
			res := op.iop(a)
			for i := 0; i < 20; i++ {
				x := randIn(r, a)
				if !op.dom.Contains(x) {
					continue
				}
				if !res.Contains(op.fop(x)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s containment: %v", op.name, err)
		}
	}
}

func TestQuickPowIntContainment(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%7) + 1
		a := randInterval(r).Intersect(New(-20, 20))
		if a.IsEmpty() {
			return true
		}
		res := a.PowInt(n)
		for i := 0; i < 20; i++ {
			x := randIn(r, a)
			if !res.Contains(ipow(x, n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("powint containment: %v", err)
	}
}

// TestQuickInverseProjections checks the HC4 backward ops: if z = f(x, y)
// exactly, then x must remain in the projected interval.
func TestQuickInverseProjections(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xI, yI := randInterval(r), randInterval(r)
		x, y := randIn(r, xI), randIn(r, yI)

		// add: z = x + y
		zI := xI.Add(yI)
		if !InvAddX(zI, yI).Contains(x) {
			return false
		}
		// sub: z = x - y
		zI = xI.Sub(yI)
		if !InvSubX(zI, yI).Contains(x) || !InvSubY(zI, xI).Contains(y) {
			return false
		}
		// mul
		zI = xI.Mul(yI)
		if !InvMulX(zI, yI).Contains(x) {
			return false
		}
		// sqr
		zI = xI.Sqr()
		if !InvSqr(zI, xI).Contains(x) {
			return false
		}
		// abs
		zI = xI.Abs()
		if !InvAbs(zI, xI).Contains(x) {
			return false
		}
		// powint odd and even
		if !InvPowInt(xI.PowInt(3), xI, 3).Contains(x) {
			return false
		}
		if !InvPowInt(xI.PowInt(2), xI, 2).Contains(x) {
			return false
		}
		// sin / cos
		if !InvSin(xI.Sin(), xI).Contains(x) {
			return false
		}
		if !InvCos(xI.Cos(), xI).Contains(x) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("inverse projection soundness: %v", err)
	}
}

func TestInvSqrtExpLog(t *testing.T) {
	if got := InvSqrt(New(2, 3)); !got.Contains(4) || !got.Contains(9) {
		t.Errorf("InvSqrt[2,3] = %v", got)
	}
	if got := InvExp(New(1, math.E)); !got.Contains(0) || !got.Contains(1) {
		t.Errorf("InvExp = %v", got)
	}
	if got := InvLog(New(0, 1)); !got.Contains(1) || !got.Contains(math.E) {
		t.Errorf("InvLog = %v", got)
	}
}

func TestInvMulXCases(t *testing.T) {
	// y bounded away from zero: ordinary division
	if got := InvMulX(New(4, 8), New(2, 2)); !got.Contains(2) || !got.Contains(4) {
		t.Errorf("InvMulX = %v", got)
	}
	// y may be zero and z contains zero: unconstrained
	if got := InvMulX(New(-1, 1), New(-1, 1)); !got.IsEntire() {
		t.Errorf("InvMulX unconstrained = %v", got)
	}
	// empties
	if got := InvMulX(Empty(), New(1, 2)); !got.IsEmpty() {
		t.Errorf("InvMulX empty = %v", got)
	}
}

func TestStringer(t *testing.T) {
	if s := New(1, 2).String(); s != "[1, 2]" {
		t.Errorf("String = %q", s)
	}
	if s := Empty().String(); s != "[empty]" {
		t.Errorf("String = %q", s)
	}
}

func TestWidthMag(t *testing.T) {
	if w := New(1, 4).Width(); !approxEq(w, 3, 0) {
		t.Errorf("Width = %v", w)
	}
	if m := New(-5, 2).Mag(); m != 5 {
		t.Errorf("Mag = %v", m)
	}
	if w := Entire().Width(); !math.IsInf(w, 1) {
		t.Errorf("entire width = %v", w)
	}
}
