package expr

import (
	"fmt"

	"icpic3/internal/interval"
)

// IEnv maps variable names to interval values (Booleans as subsets of
// [0, 1]).
type IEnv map[string]interval.Interval

// Truth is a three-valued Boolean: the answer of a Boolean expression over
// a box of inputs.
type Truth int8

const (
	// Unknown: the box holds points where the expression is true and
	// points where it is false, or the enclosures are too wide to tell.
	Unknown Truth = iota
	// False on every point of the box.
	False
	// True on every point of the box.
	True
)

func (t Truth) String() string {
	switch t {
	case False:
		return "false"
	case True:
		return "true"
	}
	return "unknown"
}

// EvalInterval returns an enclosure of e's value over every point of the
// box env, computed forward with outward rounding (package interval), so
// the exact real value at each point lies inside.  A Boolean result is
// three-valued: [1, 1] true on the whole box, [0, 0] false, [0, 1]
// unknown (see Truth).
//
// Every subterm is evaluated, including untaken ite branches, and the
// evaluation fails when any of them may be undefined somewhere in the
// box: a divisor or a negative power's base enclosure holding 0, a sqrt
// argument reaching below 0, a log argument reaching 0, a tan argument
// that may hold a pole.  The ternary normal form constrains every
// subterm unconditionally, so a point is a model of the compiled
// formula only where all of them are defined; a nil error vouches for
// that on the whole box.
func (e *Expr) EvalInterval(env IEnv) (interval.Interval, error) {
	switch e.Op {
	case OpConst:
		return interval.Point(e.Val), nil
	case OpVar:
		v, ok := env[e.Name]
		if !ok {
			return interval.Interval{}, fmt.Errorf("expr: unbound variable %q", e.Name)
		}
		if v.IsEmpty() {
			return interval.Interval{}, fmt.Errorf("expr: empty interval for %q", e.Name)
		}
		return v, nil
	}
	var buf [3]interval.Interval
	var args []interval.Interval
	if len(e.Args) <= len(buf) {
		args = buf[:len(e.Args)]
	} else { // n-ary and/or
		args = make([]interval.Interval, len(e.Args))
	}
	for i, a := range e.Args {
		v, err := a.EvalInterval(env)
		if err != nil {
			return interval.Interval{}, err
		}
		args[i] = v
	}
	undefined := func(what string) (interval.Interval, error) {
		return interval.Interval{}, fmt.Errorf("expr: %s may be undefined in %s", what, e)
	}
	switch e.Op {
	case OpAdd:
		return args[0].Add(args[1]), nil
	case OpSub:
		return args[0].Sub(args[1]), nil
	case OpMul:
		return args[0].Mul(args[1]), nil
	case OpDiv:
		if args[1].Contains(0) {
			return undefined("division")
		}
		return args[0].Div(args[1]), nil
	case OpNeg:
		return args[0].Neg(), nil
	case OpPow:
		if e.N < 0 && args[0].Contains(0) {
			return undefined("negative power")
		}
		return args[0].PowInt(e.N), nil
	case OpMin:
		return args[0].Min(args[1]), nil
	case OpMax:
		return args[0].Max(args[1]), nil
	case OpAbs:
		return args[0].Abs(), nil
	case OpSqrt:
		if args[0].Lo < 0 {
			return undefined("sqrt")
		}
		return args[0].Sqrt(), nil
	case OpExp:
		return args[0].Exp(), nil
	case OpLog:
		if args[0].Lo <= 0 {
			return undefined("log")
		}
		return args[0].Log(), nil
	case OpSin:
		return args[0].Sin(), nil
	case OpCos:
		return args[0].Cos(), nil
	case OpTan:
		r := args[0].Tan()
		if r.IsEntire() { // the argument may hold a pole
			return undefined("tan")
		}
		return r, nil
	case OpAtan:
		return args[0].Atan(), nil
	case OpTanh:
		return args[0].Tanh(), nil
	case OpLe:
		return truth(compare(args[0], args[1], false)), nil
	case OpLt:
		return truth(compare(args[0], args[1], true)), nil
	case OpGe:
		return truth(compare(args[1], args[0], false)), nil
	case OpGt:
		return truth(compare(args[1], args[0], true)), nil
	case OpEq:
		return truth(equal(args[0], args[1])), nil
	case OpNeq:
		return truth(not(equal(args[0], args[1]))), nil
	case OpNot:
		return truth(not(truthOf(args[0]))), nil
	case OpAnd, OpOr:
		// and: false as soon as one argument is; or: true as soon as one is
		stop := False
		if e.Op == OpOr {
			stop = True
		}
		r := not(stop)
		for _, a := range args {
			switch t := truthOf(a); {
			case t == stop:
				return truth(stop), nil
			case t == Unknown:
				r = Unknown
			}
		}
		return truth(r), nil
	case OpImplies:
		a, b := truthOf(args[0]), truthOf(args[1])
		switch {
		case a == False || b == True:
			return truth(True), nil
		case a == True && b == False:
			return truth(False), nil
		}
		return truth(Unknown), nil
	case OpIff:
		a, b := truthOf(args[0]), truthOf(args[1])
		if a == Unknown || b == Unknown {
			return truth(Unknown), nil
		}
		return truth(boolTruth(a == b)), nil
	case OpIte:
		switch truthOf(args[0]) {
		case True:
			return args[1], nil
		case False:
			return args[2], nil
		}
		return args[1].Hull(args[2]), nil
	}
	return interval.Interval{}, fmt.Errorf("expr: cannot evaluate op %s", e.Op)
}

// EvalTruth evaluates a Boolean expression over the box env (see
// EvalInterval).
func (e *Expr) EvalTruth(env IEnv) (Truth, error) {
	v, err := e.EvalInterval(env)
	if err != nil {
		return Unknown, err
	}
	return truthOf(v), nil
}

// compare decides a <= b (a < b when strict) on every pair of points.
func compare(a, b interval.Interval, strict bool) Truth {
	switch {
	case a.Hi < b.Lo || (!strict && a.Hi == b.Lo):
		return True
	case a.Lo > b.Hi || (strict && a.Lo == b.Hi):
		return False
	}
	return Unknown
}

// equal decides a = b on every pair of points.
func equal(a, b interval.Interval) Truth {
	switch {
	case a.IsPoint() && b.IsPoint() && a.Lo == b.Lo:
		return True
	case a.Hi < b.Lo || b.Hi < a.Lo:
		return False
	}
	return Unknown
}

func not(t Truth) Truth {
	switch t {
	case True:
		return False
	case False:
		return True
	}
	return Unknown
}

func boolTruth(b bool) Truth {
	if b {
		return True
	}
	return False
}

// truth is the interval form of t: [1, 1], [0, 0] or [0, 1].
func truth(t Truth) interval.Interval {
	switch t {
	case True:
		return interval.Point(1)
	case False:
		return interval.Point(0)
	}
	return interval.New(0, 1)
}

// truthOf reads a Boolean value (0 false, nonzero true) off an interval.
func truthOf(v interval.Interval) Truth {
	switch {
	case v.Lo == 0 && v.Hi == 0:
		return False
	case !v.Contains(0):
		return True
	}
	return Unknown
}
