// Package fixedpoint implements Q16.16 signed fixed-point arithmetic for the
// workload kernels. The SPLASH-2 originals are floating-point codes; our
// pipe-stage netlists are integer datapaths, so the kernels compute in
// fixed point. This keeps every arithmetic operation expressible as the
// 32-bit adder/multiplier operations whose operand values sensitize the
// circuit paths.
package fixedpoint

import "fmt"

// Q is a Q16.16 signed fixed-point number.
type Q int32

// One is the fixed-point representation of 1.0.
const One Q = 1 << 16

// FromInt converts an integer to fixed point. It panics on overflow, which
// in the kernels indicates a bug rather than a data condition.
func FromInt(i int) Q {
	if i > 0x7FFF || i < -0x8000 {
		panic(fmt.Sprintf("fixedpoint: integer %d overflows Q16.16", i))
	}
	return Q(i) << 16
}

// FromFloat converts a float to the nearest fixed-point value.
func FromFloat(f float64) Q {
	v := f * float64(One)
	if v >= 0 {
		v += 0.5
	} else {
		v -= 0.5
	}
	return Q(int32(v))
}

// Float converts back to float64 (for reporting only; kernels never use it).
func (q Q) Float() float64 { return float64(q) / float64(One) }

// Mul multiplies two fixed-point values with a 64-bit intermediate.
func Mul(a, b Q) Q {
	return Q((int64(a) * int64(b)) >> 16)
}

// Div divides a by b. It panics on division by zero.
func Div(a, b Q) Q {
	if b == 0 {
		panic("fixedpoint: division by zero")
	}
	return Q((int64(a) << 16) / int64(b))
}

// Sqrt returns the square root of a non-negative value using Newton
// iterations seeded by a bit-scan estimate. It panics on negative input.
func Sqrt(a Q) Q {
	if a < 0 {
		panic("fixedpoint: Sqrt of negative value")
	}
	if a == 0 {
		return 0
	}
	// Newton: x' = (x + a/x) / 2, converges quadratically.
	x := a
	if x < One {
		x = One
	}
	for i := 0; i < 20; i++ {
		nx := (x + Div(a, x)) >> 1
		if nx >= x { // converged (monotone decreasing sequence)
			break
		}
		x = nx
	}
	return x
}

// Abs returns |q|.
func Abs(q Q) Q {
	if q < 0 {
		return -q
	}
	return q
}

// Min returns the smaller value.
func Min(a, b Q) Q {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger value.
func Max(a, b Q) Q {
	if a > b {
		return a
	}
	return b
}

// sin returns sin(q) for q in radians, using a 7th-order odd polynomial
// after range reduction to [-pi, pi]. Accuracy ~1e-3, ample for the kernels.
func sin(q Q) Q {
	const pi = Q(205887)    // pi * 2^16
	const twoPi = Q(411775) // 2*pi * 2^16
	// Range-reduce to [-pi, pi].
	for q > pi {
		q -= twoPi
	}
	for q < -pi {
		q += twoPi
	}
	// Fold into [-pi/2, pi/2] where the polynomial is accurate.
	if q > pi/2 {
		q = pi - q
	} else if q < -pi/2 {
		q = -pi - q
	}
	q2 := Mul(q, q)
	// sin x ~ x (1 - x^2/6 (1 - x^2/20 (1 - x^2/42)))
	t := One - Div(q2, FromInt(42))
	t = One - Mul(Div(q2, FromInt(20)), t)
	t = One - Mul(Div(q2, FromInt(6)), t)
	return Mul(q, t)
}

// Cos returns cos(q) via the sine identity.
func Cos(q Q) Q {
	const halfPi = Q(102944)
	return sin(q + halfPi)
}

// Bits returns the raw 32-bit pattern; the kernels pass this to the emitter
// so operand values, not abstractions, drive the circuit inputs.
func (q Q) Bits() uint32 { return uint32(q) }
