package netlist

import (
	"testing"
	"testing/quick"

	"synts/internal/gates"
	"synts/internal/isa"
)

// busUint reads the value of a bus from a full net-value slice (as
// returned by Eval), LSB first.
func busUint(vals []bool, bus Bus) uint64 {
	var v uint64
	for i, t := range bus.Nets {
		if vals[t] {
			v |= 1 << uint(i)
		}
	}
	return v
}

func TestBuilderSingleGate(t *testing.T) {
	b := NewBuilder("t")
	a := input(b, "a")
	x := input(b, "b")
	y := b.Gate(gates.AND2, a, x)
	b.Output("y", y)
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if n.NumNets() != 3 {
		t.Errorf("NumNets = %d, want 3", n.NumNets())
	}
	if n.Driver(a) != -1 || n.Driver(x) != -1 {
		t.Error("inputs must have no driver")
	}
	if n.Driver(y) != 0 {
		t.Errorf("Driver(y) = %d, want 0", n.Driver(y))
	}
	vals := n.Eval([]bool{true, true}, nil)
	if !vals[y] {
		t.Error("AND(1,1) must be 1")
	}
	vals = n.Eval([]bool{true, false}, vals)
	if vals[y] {
		t.Error("AND(1,0) must be 0")
	}
}

func TestBuilderRejectsEmpty(t *testing.T) {
	if _, err := NewBuilder("t").Build(); err == nil {
		t.Error("empty netlist must not build")
	}
	b := NewBuilder("t")
	input(b, "a")
	if _, err := b.Build(); err == nil {
		t.Error("netlist without outputs must not build")
	}
}

func TestBuilderGateArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity did not panic")
		}
	}()
	b := NewBuilder("t")
	a := input(b, "a")
	b.Gate(gates.AND2, a) // missing second input
}

func TestBusLookupPanics(t *testing.T) {
	n := mustSmallALU(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown bus lookup did not panic")
		}
	}()
	n.InputBus("nope")
}

func mustSmallALU(t *testing.T) *Netlist {
	t.Helper()
	return NewSimpleALU(8)
}

// evalALU runs the SimpleALU netlist for one op and returns y.
func evalALU(n *Netlist, op int, a, x uint64, width int) uint64 {
	in := make([]bool, len(n.Inputs))
	n.SetBusUint(in, n.InputBus("op"), uint64(op))
	n.SetBusUint(in, n.InputBus("a"), a)
	n.SetBusUint(in, n.InputBus("b"), x)
	vals := n.Eval(in, nil)
	return busUint(vals, n.OutputBus("y"))
}

func TestSimpleALU8Exhaustive(t *testing.T) {
	// Exhaustive over a coarse operand grid, all 8 ops, width 8.
	n := NewSimpleALU(8)
	ref := func(op int, a, x uint8) uint8 {
		switch op {
		case ALUAdd:
			return a + x
		case ALUSub:
			return a - x
		case ALUAnd:
			return a & x
		case ALUOr:
			return a | x
		case ALUXor:
			return a ^ x
		case ALUSlt:
			if int8(a) < int8(x) {
				return 1
			}
			return 0
		case ALUShl:
			return a << (x & 7)
		case ALUShr:
			return a >> (x & 7)
		}
		panic("bad op")
	}
	vecs := []uint8{0, 1, 2, 3, 7, 8, 15, 16, 31, 63, 64, 127, 128, 200, 254, 255}
	for op := 0; op < 8; op++ {
		for _, a := range vecs {
			for _, x := range vecs {
				got := uint8(evalALU(n, op, uint64(a), uint64(x), 8))
				want := ref(op, a, x)
				if got != want {
					t.Fatalf("ALU8 op=%d a=%d b=%d: got %d, want %d", op, a, x, got, want)
				}
			}
		}
	}
}

func TestSimpleALU32MatchesGoSemantics(t *testing.T) {
	n := NewSimpleALU(32)
	f := func(opRaw uint8, a, x uint32) bool {
		op := int(opRaw % 8)
		got := uint32(evalALU(n, op, uint64(a), uint64(x), 32))
		var want uint32
		switch op {
		case ALUAdd:
			want = a + x
		case ALUSub:
			want = a - x
		case ALUAnd:
			want = a & x
		case ALUOr:
			want = a | x
		case ALUXor:
			want = a ^ x
		case ALUSlt:
			if int32(a) < int32(x) {
				want = 1
			}
		case ALUShl:
			want = a << (x & 31)
		case ALUShr:
			want = a >> (x & 31)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSimpleALUFlags(t *testing.T) {
	n := NewSimpleALU(8)
	in := make([]bool, len(n.Inputs))
	carry := func(a, b uint64) uint64 {
		n.SetBusUint(in, n.InputBus("op"), ALUAdd)
		n.SetBusUint(in, n.InputBus("a"), a)
		n.SetBusUint(in, n.InputBus("b"), b)
		vals := n.Eval(in, nil)
		return busUint(vals, n.OutputBus("flags")) & 1
	}
	if carry(0xFF, 0x01) != 1 {
		t.Error("0xFF + 1 must set carry flag")
	}
	if carry(0x10, 0x01) != 0 {
		t.Error("0x10 + 1 must not set carry flag")
	}
}

func TestMultiplier8Exhaustive(t *testing.T) {
	n := NewMultiplier(8)
	in := make([]bool, len(n.Inputs))
	for a := 0; a < 256; a += 3 {
		for x := 0; x < 256; x += 7 {
			n.SetBusUint(in, n.InputBus("a"), uint64(a))
			n.SetBusUint(in, n.InputBus("b"), uint64(x))
			vals := n.Eval(in, nil)
			got := busUint(vals, n.OutputBus("p"))
			if want := uint64(a * x); got != want {
				t.Fatalf("mult8 %d*%d: got %d, want %d", a, x, got, want)
			}
		}
	}
}

func TestMultiplier32Property(t *testing.T) {
	n := NewMultiplier(32)
	in := make([]bool, len(n.Inputs))
	var vals []bool
	f := func(a, x uint32) bool {
		n.SetBusUint(in, n.InputBus("a"), uint64(a))
		n.SetBusUint(in, n.InputBus("b"), uint64(x))
		vals = n.Eval(in, vals)
		return busUint(vals, n.OutputBus("p")) == uint64(a)*uint64(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestComplexALUMulAndMac(t *testing.T) {
	n := NewComplexALU(16)
	in := make([]bool, len(n.Inputs))
	var vals []bool
	f := func(a, x, c uint16, mac bool) bool {
		op := uint64(0)
		if mac {
			op = 1
		}
		n.SetBusUint(in, n.InputBus("op"), op)
		n.SetBusUint(in, n.InputBus("a"), uint64(a))
		n.SetBusUint(in, n.InputBus("b"), uint64(x))
		n.SetBusUint(in, n.InputBus("c"), uint64(c))
		vals = n.Eval(in, vals)
		want := uint64(a) * uint64(x)
		if mac {
			want += uint64(c)
		}
		return busUint(vals, n.OutputBus("p")) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBarrelShifterStandalone(t *testing.T) {
	b := NewBuilder("shift")
	a := b.InputBusN("a", 16)
	sh := b.InputBusN("sh", 4)
	dir := input(b, "dir")
	y := BarrelShifter(b, a.Nets, sh.Nets, dir)
	b.OutputBusN("y", y)
	n := b.MustBuild()

	in := make([]bool, len(n.Inputs))
	for _, v := range []uint16{0, 1, 0x8000, 0xABCD, 0xFFFF} {
		for s := 0; s < 16; s++ {
			for d := 0; d < 2; d++ {
				n.SetBusUint(in, n.InputBus("a"), uint64(v))
				n.SetBusUint(in, n.InputBus("sh"), uint64(s))
				n.SetBusUint(in, n.InputBus("dir"), uint64(d))
				vals := n.Eval(in, nil)
				got := uint16(busUint(vals, n.OutputBus("y")))
				want := v << uint(s)
				if d == 1 {
					want = v >> uint(s)
				}
				if got != want {
					t.Fatalf("shift v=%#x s=%d dir=%d: got %#x, want %#x", v, s, d, got, want)
				}
			}
		}
	}
}

func TestDecodeOneHot(t *testing.T) {
	n := NewDecode()
	in := make([]bool, len(n.Inputs))
	for op := 0; op < isa.NumOps; op++ {
		w := isa.Encode(isa.Inst{Op: isa.Op(op), Rd: 1, Rs: 2, Rt: 3})
		n.SetBusUint(in, n.InputBus("instr"), uint64(w))
		vals := n.Eval(in, nil)
		oh := busUint(vals, n.OutputBus("onehot"))
		if oh != 1<<uint(op) {
			t.Errorf("op %v: onehot = %#x, want %#x", isa.Op(op), oh, 1<<uint(op))
		}
	}
}

func TestDecodeControlSignals(t *testing.T) {
	n := NewDecode()
	in := make([]bool, len(n.Inputs))
	get := func(op isa.Op) uint64 {
		w := isa.Encode(isa.Inst{Op: op})
		n.SetBusUint(in, n.InputBus("instr"), uint64(w))
		vals := n.Eval(in, nil)
		return busUint(vals, n.OutputBus("ctrl"))
	}
	const (
		regWrite = 1 << 0
		memRead  = 1 << 1
		memWrite = 1 << 2
		branch   = 1 << 3
		useImm   = 1 << 4
		simple   = 1 << 5
		complx   = 1 << 6
	)
	cases := []struct {
		op   isa.Op
		want uint64
	}{
		{isa.ADD, regWrite | simple},
		{isa.ADDI, regWrite | useImm | simple},
		{isa.MUL, regWrite | complx},
		{isa.LD, regWrite | memRead | useImm},
		{isa.ST, memWrite | useImm},
		{isa.BEQ, branch | useImm},
		{isa.NOP, 0},
		{isa.JMP, useImm},
	}
	for _, c := range cases {
		if got := get(c.op); got != c.want {
			t.Errorf("%v: ctrl = %07b, want %07b", c.op, got, c.want)
		}
	}
}

func TestDecodeALUOpMatchesSimpleALUEncoding(t *testing.T) {
	n := NewDecode()
	in := make([]bool, len(n.Inputs))
	want := map[isa.Op]uint64{
		isa.ADD: ALUAdd, isa.ADDI: ALUAdd, isa.LD: ALUAdd, isa.ST: ALUAdd,
		isa.SUB: ALUSub, isa.BEQ: ALUSub, isa.BNE: ALUSub,
		isa.AND: ALUAnd, isa.OR: ALUOr, isa.XOR: ALUXor,
		isa.SLT: ALUSlt, isa.SHL: ALUShl, isa.SHR: ALUShr,
	}
	for op, aluop := range want {
		w := isa.Encode(isa.Inst{Op: op})
		n.SetBusUint(in, n.InputBus("instr"), uint64(w))
		vals := n.Eval(in, nil)
		if got := busUint(vals, n.OutputBus("aluop")); got != aluop {
			t.Errorf("%v: aluop = %d, want %d", op, got, aluop)
		}
	}
}

func TestDecodeImmediateSignExtension(t *testing.T) {
	n := NewDecode()
	in := make([]bool, len(n.Inputs))
	cases := []struct {
		op   isa.Op
		imm  uint16
		want uint32
	}{
		{isa.ADDI, 0x0005, 0x00000005},
		{isa.ADDI, 0x8000, 0xFFFF8000},
		{isa.LD, 0xFFFF, 0xFFFFFFFF},
		{isa.ADD, 0xFFFF, 0}, // R-format: imm bus isolated
	}
	for _, c := range cases {
		w := isa.Encode(isa.Inst{Op: c.op, C: uint32(c.imm), Rt: 0x1f})
		n.SetBusUint(in, n.InputBus("instr"), uint64(w))
		vals := n.Eval(in, nil)
		if got := uint32(busUint(vals, n.OutputBus("imm"))); got != c.want {
			t.Errorf("%v imm %#x: got %#x, want %#x", c.op, c.imm, got, c.want)
		}
	}
}

func TestDecodeRsEqRt(t *testing.T) {
	n := NewDecode()
	in := make([]bool, len(n.Inputs))
	check := func(rs, rt uint8, want bool) {
		w := isa.Encode(isa.Inst{Op: isa.ADD, Rs: rs, Rt: rt})
		n.SetBusUint(in, n.InputBus("instr"), uint64(w))
		vals := n.Eval(in, nil)
		got := busUint(vals, n.OutputBus("rseqrt")) == 1
		if got != want {
			t.Errorf("rs=%d rt=%d: rseqrt = %v, want %v", rs, rt, got, want)
		}
	}
	check(5, 5, true)
	check(5, 6, false)
	check(0, 0, true)
	check(31, 30, false)
}

func TestAreaPositiveAndOrdered(t *testing.T) {
	dec := NewDecode()
	alu := NewSimpleALU(32)
	mul := NewComplexALU(32)
	if dec.Area() <= 0 || alu.Area() <= 0 || mul.Area() <= 0 {
		t.Fatal("areas must be positive")
	}
	if !(dec.Area() < alu.Area() && alu.Area() < mul.Area()) {
		t.Errorf("expected area(decode) < area(simplealu) < area(complexalu), got %.0f, %.0f, %.0f",
			dec.Area(), alu.Area(), mul.Area())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(opRaw, rd, rs, rt uint8, imm uint16) bool {
		op := isa.Op(uint8(opRaw) % uint8(isa.NumOps))
		in := isa.Inst{Op: op, Rd: rd & 31, Rs: rs & 31, Rt: rt & 31, C: uint32(imm)}
		out := isa.Decode(isa.Encode(in))
		if out.Op != in.Op || out.Rd != in.Rd || out.Rs != in.Rs {
			return false
		}
		switch op {
		case isa.ADDI, isa.LD, isa.ST, isa.BEQ, isa.BNE, isa.JMP:
			return out.Imm() == imm
		default:
			return out.Rt == in.Rt
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The Build-time input index must agree with the declaration order:
// every primary input maps to its position in Inputs and every other net
// to -1 — on every stage and arithmetic-family generator.
func TestConnectivityPrecompute(t *testing.T) {
	nls := []*Netlist{
		NewDecode(),
		NewSimpleALU(32),
		NewComplexALU(16),
		NewMultiplier(16),
		NewDivider(16),
		NewAdderNetlist(AdderRipple, 32),
		NewAdderNetlist(AdderKoggeStone, 32),
		NewAdderNetlist(AdderBrentKung, 32),
	}
	for _, n := range nls {
		want := make([]int32, n.NumNets())
		for i := range want {
			want[i] = -1
		}
		for i, tn := range n.Inputs {
			want[tn] = int32(i)
		}
		for tn := range want {
			if n.inputPos[tn] != want[tn] {
				t.Fatalf("%s: net %d input position %d, want %d", n.Name, tn, n.inputPos[tn], want[tn])
			}
		}
	}
}

// input declares a single-bit primary input and returns its net.
func input(b *Builder, name string) Net { return b.InputBusN(name, 1).Nets[0] }
