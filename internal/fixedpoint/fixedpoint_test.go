package fixedpoint

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromIntRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, -1, 100, -100, 0x7FFF, -0x8000} {
		if got := FromInt(i).Float(); got != float64(i) {
			t.Errorf("FromInt(%d).Float() = %v", i, got)
		}
	}
}

func TestFromIntOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	FromInt(0x8000)
}

func TestFromFloatRounds(t *testing.T) {
	cases := []struct {
		f    float64
		want Q
	}{
		{0, 0},
		{1, One},
		{-1, -One},
		{0.5, One / 2},
		{1.0 / 65536, 1},
	}
	for _, c := range cases {
		if got := FromFloat(c.f); got != c.want {
			t.Errorf("FromFloat(%v) = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestMulDivBasics(t *testing.T) {
	a, b := FromFloat(2.5), FromFloat(4)
	if got := Mul(a, b); got != FromFloat(10) {
		t.Errorf("2.5*4 = %v", got.Float())
	}
	if got := Div(FromFloat(10), b); got != a {
		t.Errorf("10/4 = %v", got.Float())
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("div by zero did not panic")
		}
	}()
	Div(One, 0)
}

func TestSqrtKnownValues(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {1, 1}, {4, 2}, {9, 3}, {2, math.Sqrt2}, {0.25, 0.5},
	}
	for _, c := range cases {
		got := Sqrt(FromFloat(c.in)).Float()
		if math.Abs(got-c.want) > 2e-3 {
			t.Errorf("Sqrt(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSqrtNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative sqrt did not panic")
		}
	}()
	Sqrt(-One)
}

// Property: Sqrt(x)^2 is within tolerance of x over a wide positive range.
func TestSqrtProperty(t *testing.T) {
	f := func(raw uint16) bool {
		x := Q(int32(raw)) * 37 // up to ~2.4M raw = ~37 in Q16.16
		if x < 0 {
			x = -x
		}
		s := Sqrt(x)
		back := Mul(s, s)
		return Abs(back-x) <= x/64+16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSinCosAccuracy(t *testing.T) {
	for deg := -720; deg <= 720; deg += 5 {
		rad := float64(deg) * math.Pi / 180
		q := FromFloat(rad)
		if got, want := sin(q).Float(), math.Sin(rad); math.Abs(got-want) > 5e-3 {
			t.Fatalf("sin(%d deg) = %v, want %v", deg, got, want)
		}
		if got, want := Cos(q).Float(), math.Cos(rad); math.Abs(got-want) > 5e-3 {
			t.Fatalf("Cos(%d deg) = %v, want %v", deg, got, want)
		}
	}
}

func TestMinMaxAbs(t *testing.T) {
	if Min(One, 2*One) != One || Max(One, 2*One) != 2*One {
		t.Error("Min/Max broken")
	}
	if Abs(-One) != One || Abs(One) != One {
		t.Error("Abs broken")
	}
}

// Property: Mul is commutative and One is its identity.
func TestMulAlgebraProperty(t *testing.T) {
	f := func(a32, b32 int32) bool {
		a, b := Q(a32>>8), Q(b32>>8) // keep products in range
		return Mul(a, b) == Mul(b, a) && Mul(a, One) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBits(t *testing.T) {
	if One.Bits() != 0x10000 {
		t.Errorf("One.Bits() = %#x", One.Bits())
	}
	if Q(-1).Bits() != 0xFFFFFFFF {
		t.Errorf("Q(-1).Bits() = %#x", Q(-1).Bits())
	}
}
