package netlist

import (
	"testing"
	"testing/quick"
)

// addVia evaluates a standalone adder netlist on (a, b).
func addVia(n *Netlist, a, b uint64) (sum uint64, cout bool) {
	in := make([]bool, len(n.Inputs))
	n.SetBusUint(in, n.InputBus("a"), a)
	n.SetBusUint(in, n.InputBus("b"), b)
	vals := n.Eval(in, nil)
	return busUint(vals, n.OutputBus("s")), busUint(vals, n.OutputBus("cout")) == 1
}

func TestAdderKindsString(t *testing.T) {
	for _, k := range []AdderKind{AdderRipple, AdderKoggeStone, AdderBrentKung} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if AdderKind(99).String() == "" {
		t.Error("unknown kind must still render")
	}
}

func TestAllAddersExhaustive8(t *testing.T) {
	for _, kind := range []AdderKind{AdderRipple, AdderKoggeStone, AdderBrentKung} {
		n := NewAdderNetlist(kind, 8)
		for a := 0; a < 256; a += 5 {
			for b := 0; b < 256; b += 7 {
				sum, cout := addVia(n, uint64(a), uint64(b))
				want := a + b
				if sum != uint64(want&0xFF) || cout != (want > 0xFF) {
					t.Fatalf("%v: %d+%d = %d cout %v, want %d", kind, a, b, sum, cout, want)
				}
			}
		}
	}
}

// Property: all three adder architectures agree with Go addition at width 32.
func TestAddersAgreeProperty(t *testing.T) {
	ks := NewAdderNetlist(AdderKoggeStone, 32)
	bk := NewAdderNetlist(AdderBrentKung, 32)
	rp := NewAdderNetlist(AdderRipple, 32)
	f := func(a, b uint32) bool {
		want := uint64(a) + uint64(b)
		for _, n := range []*Netlist{ks, bk, rp} {
			sum, cout := addVia(n, uint64(a), uint64(b))
			got := sum
			if cout {
				got |= 1 << 32
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAdderArchitectureTradeoffs(t *testing.T) {
	// Structural expectations: Kogge-Stone has the most cells; Brent-Kung
	// fewer prefix cells than Kogge-Stone but more depth; ripple the
	// fewest cells and by far the longest chain. Depth is measured via the
	// STA in the timing package, so here compare only cell counts.
	counts := map[AdderKind]int{}
	for _, kind := range []AdderKind{AdderRipple, AdderKoggeStone, AdderBrentKung} {
		counts[kind] = len(NewAdderNetlist(kind, 32).Gates)
	}
	if !(counts[AdderRipple] < counts[AdderBrentKung] && counts[AdderBrentKung] < counts[AdderKoggeStone]) {
		t.Errorf("cell counts: ripple %d, brent-kung %d, kogge-stone %d — expected strictly increasing",
			counts[AdderRipple], counts[AdderBrentKung], counts[AdderKoggeStone])
	}
}

func TestBrentKungWithCarryIn(t *testing.T) {
	// BrentKungAdder handles cin (used standalone with cin = 1).
	b := NewBuilder("bk-cin")
	b.SetVariation(0)
	a := b.InputBusN("a", 8)
	x := b.InputBusN("b", 8)
	one := b.Const(true)
	sum, cout := BrentKungAdder(b, a.Nets, x.Nets, one)
	b.OutputBusN("s", sum)
	b.Output("cout", cout)
	n := b.MustBuild()
	for _, c := range [][2]uint64{{0, 0}, {1, 2}, {255, 255}, {254, 1}} {
		s, co := addVia(n, c[0], c[1])
		want := c[0] + c[1] + 1
		if s != want&0xFF || co != (want > 0xFF) {
			t.Fatalf("bk cin: %d+%d+1 = %d cout %v", c[0], c[1], s, co)
		}
	}
}

func TestDivider8Exhaustive(t *testing.T) {
	n := NewDivider(8)
	in := make([]bool, len(n.Inputs))
	for a := 0; a < 256; a += 3 {
		for b := 1; b < 256; b += 5 {
			n.SetBusUint(in, n.InputBus("a"), uint64(a))
			n.SetBusUint(in, n.InputBus("b"), uint64(b))
			vals := n.Eval(in, nil)
			q := busUint(vals, n.OutputBus("q"))
			r := busUint(vals, n.OutputBus("r"))
			if q != uint64(a/b) || r != uint64(a%b) {
				t.Fatalf("%d/%d = q %d r %d, want q %d r %d", a, b, q, r, a/b, a%b)
			}
		}
	}
}

func TestDividerByZeroIsDefined(t *testing.T) {
	n := NewDivider(8)
	in := make([]bool, len(n.Inputs))
	n.SetBusUint(in, n.InputBus("a"), 0xAB)
	n.SetBusUint(in, n.InputBus("b"), 0)
	vals := n.Eval(in, nil)
	if q := busUint(vals, n.OutputBus("q")); q != 0xFF {
		t.Errorf("q = %#x, want all-ones", q)
	}
	if r := busUint(vals, n.OutputBus("r")); r != 0xAB {
		t.Errorf("r = %#x, want dividend", r)
	}
}

func TestDivider32Property(t *testing.T) {
	n := NewDivider(32)
	in := make([]bool, len(n.Inputs))
	var vals []bool
	f := func(a, b uint32) bool {
		if b == 0 {
			b = 1
		}
		n.SetBusUint(in, n.InputBus("a"), uint64(a))
		n.SetBusUint(in, n.InputBus("b"), uint64(b))
		vals = n.Eval(in, vals)
		return busUint(vals, n.OutputBus("q")) == uint64(a/b) &&
			busUint(vals, n.OutputBus("r")) == uint64(a%b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
