package netlist

import (
	"fmt"

	"synts/internal/gates"
)

// This file contains the structural generators for the arithmetic blocks and
// the three pipe-stage circuits (Decode, SimpleALU, ComplexALU).
//
// All multi-bit values are little-endian: Nets[0] is bit 0.

// fullAdder instantiates a 1-bit full adder and returns (sum, carry).
// sum = a^b^cin; carry = a·b + cin·(a^b). The 5-cell mapping matches a
// standard-cell FA decomposition, whose carry path (XOR2 then AND2+OR2) is
// what forms the ripple critical path.
func fullAdder(b *Builder, a, x, cin Net) (sum, cout Net) {
	axb := b.Gate(gates.XOR2, a, x)
	sum = b.Gate(gates.XOR2, axb, cin)
	t1 := b.Gate(gates.AND2, a, x)
	t2 := b.Gate(gates.AND2, axb, cin)
	cout = b.Gate(gates.OR2, t1, t2)
	return sum, cout
}

// RippleAdder instantiates a width-bit ripple-carry adder. It returns the
// sum bits and the carry-out net. The carry chain through all width stages
// is the structural critical path, but it is only sensitised when operand
// values propagate a carry end to end, which is exactly the "critical path
// delays are rarely manifested" premise of the thesis.
func RippleAdder(b *Builder, a, x []Net, cin Net) (sum []Net, cout Net) {
	if len(a) != len(x) {
		panic(fmt.Sprintf("netlist: adder operand widths differ: %d vs %d", len(a), len(x)))
	}
	sum = make([]Net, len(a))
	c := cin
	for i := range a {
		sum[i], c = fullAdder(b, a[i], x[i], c)
	}
	return sum, c
}

// PrefixAdder instantiates a width-bit Kogge-Stone parallel-prefix adder —
// the adder class synthesis tools infer for performance-critical datapaths.
// Its log-depth carry tree means typical operand-driven transitions traverse
// a large fraction of the structural critical path, which is what gives
// real pipelines their characteristic "delays cluster near t_nom" profile
// (the ripple adder's linear chain, by contrast, is almost never fully
// sensitized). Returns the sum bits and carry-out.
func PrefixAdder(b *Builder, a, x []Net, cin Net) (sum []Net, cout Net) {
	sum, carries := PrefixAdderCarries(b, a, x, cin)
	return sum, carries[len(a)]
}

// PrefixAdderCarries is PrefixAdder exposing the full carry vector:
// carries[i] is the carry *into* bit i (carries[0] == cin) and carries[w]
// is the carry-out. The SimpleALU uses carries[w-1] for its overflow/SLT
// logic so that the compare result is produced at adder depth rather than
// through a chain of value-masked XOR reconstructions.
func PrefixAdderCarries(b *Builder, a, x []Net, cin Net) (sum []Net, carries []Net) {
	w := len(a)
	if len(x) != w {
		panic(fmt.Sprintf("netlist: adder operand widths differ: %d vs %d", len(a), len(x)))
	}
	p := make([]Net, w) // propagate
	g := make([]Net, w) // generate
	for i := 0; i < w; i++ {
		p[i] = b.Gate(gates.XOR2, a[i], x[i])
		g[i] = b.Gate(gates.AND2, a[i], x[i])
	}
	// Kogge-Stone prefix tree over (G, P).
	gg := append([]Net(nil), g...)
	pp := append([]Net(nil), p...)
	for d := 1; d < w; d <<= 1 {
		ng := append([]Net(nil), gg...)
		np := append([]Net(nil), pp...)
		for i := d; i < w; i++ {
			t1 := b.Gate(gates.AND2, pp[i], gg[i-d])
			ng[i] = b.Gate(gates.OR2, gg[i], t1)
			np[i] = b.Gate(gates.AND2, pp[i], pp[i-d])
		}
		gg, pp = ng, np
	}
	// Carries: c[0] = cin; c[i] = G[i-1] | (P[i-1] & cin).
	carries = make([]Net, w+1)
	carries[0] = cin
	for i := 1; i <= w; i++ {
		t := b.Gate(gates.AND2, pp[i-1], cin)
		carries[i] = b.Gate(gates.OR2, gg[i-1], t)
	}
	sum = make([]Net, w)
	for i := 0; i < w; i++ {
		sum[i] = b.Gate(gates.XOR2, p[i], carries[i])
	}
	return sum, carries
}

// BrentKungAdder instantiates a width-bit Brent-Kung parallel-prefix adder:
// roughly half the prefix cells of Kogge-Stone at about twice the tree
// depth. It exists for the adder-architecture ablation — the choice of
// prefix network changes the shape of the sensitized-delay distribution and
// therefore every err(r) curve. Returns the sum bits and carry-out.
func BrentKungAdder(b *Builder, a, x []Net, cin Net) (sum []Net, cout Net) {
	w := len(a)
	if len(x) != w {
		panic(fmt.Sprintf("netlist: adder operand widths differ: %d vs %d", len(a), len(x)))
	}
	p := make([]Net, w)
	g := make([]Net, w)
	for i := 0; i < w; i++ {
		p[i] = b.Gate(gates.XOR2, a[i], x[i])
		g[i] = b.Gate(gates.AND2, a[i], x[i])
	}
	// Prefix (G,P) combine helper.
	gg := append([]Net(nil), g...)
	pp := append([]Net(nil), p...)
	comb := func(hi, lo int) {
		t1 := b.Gate(gates.AND2, pp[hi], gg[lo])
		gg[hi] = b.Gate(gates.OR2, gg[hi], t1)
		pp[hi] = b.Gate(gates.AND2, pp[hi], pp[lo])
	}
	// Up-sweep: combine at strides 1,2,4,... on the reduction tree.
	for d := 1; d < w; d <<= 1 {
		for i := 2*d - 1; i < w; i += 2 * d {
			comb(i, i-d)
		}
	}
	// Down-sweep: fill in the intermediate prefixes.
	for d := 1 << uint(log2(w)-1); d >= 1; d >>= 1 {
		for i := 3*d - 1; i < w; i += 2 * d {
			comb(i, i-d)
		}
	}
	sum = make([]Net, w)
	sum[0] = b.Gate(gates.XOR2, p[0], cin)
	for i := 1; i < w; i++ {
		t := b.Gate(gates.AND2, pp[i-1], cin)
		c := b.Gate(gates.OR2, gg[i-1], t)
		sum[i] = b.Gate(gates.XOR2, p[i], c)
	}
	tc := b.Gate(gates.AND2, pp[w-1], cin)
	cout = b.Gate(gates.OR2, gg[w-1], tc)
	return sum, cout
}

// AdderKind selects an adder architecture for NewAdderNetlist.
type AdderKind int

// The three adder architectures available for the ablation study.
const (
	AdderRipple AdderKind = iota
	AdderKoggeStone
	AdderBrentKung
)

// String names the adder architecture.
func (k AdderKind) String() string {
	switch k {
	case AdderRipple:
		return "ripple"
	case AdderKoggeStone:
		return "kogge-stone"
	case AdderBrentKung:
		return "brent-kung"
	}
	return fmt.Sprintf("AdderKind(%d)", int(k))
}

// NewAdderNetlist builds a standalone width-bit adder of the given
// architecture with input buses "a", "b" and outputs "s", "cout" — the unit
// under test for the adder ablation.
func NewAdderNetlist(kind AdderKind, width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("adder-%s-%d", kind, width))
	a := b.InputBusN("a", width)
	x := b.InputBusN("b", width)
	zero := b.Const(false)
	var sum []Net
	var cout Net
	switch kind {
	case AdderRipple:
		sum, cout = RippleAdder(b, a.Nets, x.Nets, zero)
	case AdderKoggeStone:
		sum, cout = PrefixAdder(b, a.Nets, x.Nets, zero)
	case AdderBrentKung:
		sum, cout = BrentKungAdder(b, a.Nets, x.Nets, zero)
	default:
		panic("netlist: unknown adder kind")
	}
	b.OutputBusN("s", sum)
	b.Output("cout", cout)
	return b.MustBuild()
}

// bitwise instantiates one 2-input cell per bit pair.
func bitwise(b *Builder, k gates.Kind, a, x []Net) []Net {
	if len(a) != len(x) {
		panic("netlist: bitwise operand widths differ")
	}
	out := make([]Net, len(a))
	for i := range a {
		out[i] = b.Gate(k, a[i], x[i])
	}
	return out
}

// mux2Bus selects a (sel=0) or x (sel=1) bitwise.
func mux2Bus(b *Builder, sel Net, a, x []Net) []Net {
	if len(a) != len(x) {
		panic("netlist: mux operand widths differ")
	}
	out := make([]Net, len(a))
	for i := range a {
		out[i] = b.Gate(gates.MUX2, sel, a[i], x[i])
	}
	return out
}

// BarrelShifter instantiates a logarithmic shifter. dir=0 shifts left,
// dir=1 shifts right (logical). The shift amount bus sh must have
// log2(len(a)) bits. Vacated positions fill with zero.
func BarrelShifter(b *Builder, a []Net, sh []Net, dir Net) []Net {
	w := len(a)
	if 1<<uint(len(sh)) != w {
		panic(fmt.Sprintf("netlist: shifter width %d needs %d shift bits, got %d", w, log2(w), len(sh)))
	}
	zero := b.Const(false)
	cur := append([]Net(nil), a...)
	for s := 0; s < len(sh); s++ {
		amt := 1 << uint(s)
		next := make([]Net, w)
		for i := 0; i < w; i++ {
			// Left shift by amt: bit i comes from bit i-amt.
			var left Net = zero
			if i-amt >= 0 {
				left = cur[i-amt]
			}
			// Right shift by amt: bit i comes from bit i+amt.
			var right Net = zero
			if i+amt < w {
				right = cur[i+amt]
			}
			moved := b.Gate(gates.MUX2, dir, left, right)
			next[i] = b.Gate(gates.MUX2, sh[s], cur[i], moved)
		}
		cur = next
	}
	return cur
}

func log2(w int) int {
	n := 0
	for 1<<uint(n) < w {
		n++
	}
	return n
}

// SimpleALU operation select encodings on the "op" input bus (3 bits).
const (
	ALUAdd = 0
	ALUSub = 1
	ALUAnd = 2
	ALUOr  = 3
	ALUXor = 4
	ALUSlt = 5
	ALUShl = 6
	ALUShr = 7
)

// NewSimpleALU generates the SimpleALU pipe-stage netlist: a width-bit
// adder/subtractor, bitwise logic unit, set-less-than, and a barrel shifter,
// with a mux tree selecting the result. Input buses: "op" (3), "a" (width),
// "b" (width). Output buses: "y" (width), "flags" (2: carry, zero... bit0 =
// carry/borrow-out, bit1 = zero).
//
// width must be a power of two (the shifter requires it); the experiments
// use 32, tests also exercise 8.
func NewSimpleALU(width int) *Netlist {
	if width <= 0 || width&(width-1) != 0 {
		panic(fmt.Sprintf("netlist: SimpleALU width %d must be a power of two", width))
	}
	b := NewBuilder(fmt.Sprintf("simplealu%d", width))
	op := b.InputBusN("op", 3)
	a := b.InputBusN("a", width)
	x := b.InputBusN("b", width)

	// op decode helpers.
	op0, op1, op2 := op.Nets[0], op.Nets[1], op.Nets[2]
	// isSub is true for SUB (001) and SLT (101): op0=1, op1=0.
	nop1 := b.Gate(gates.INV, op1)
	isSub := b.Gate(gates.AND2, op0, nop1)

	// Adder/subtractor: b XOR isSub per bit, carry-in = isSub.
	bsel := make([]Net, width)
	for i := 0; i < width; i++ {
		bsel[i] = b.Gate(gates.XOR2, x.Nets[i], isSub)
	}
	sum, carries := PrefixAdderCarries(b, a.Nets, bsel, isSub)
	cout := carries[width]

	// Logic unit.
	andv := bitwise(b, gates.AND2, a.Nets, x.Nets)
	orv := bitwise(b, gates.OR2, a.Nets, x.Nets)
	xorv := bitwise(b, gates.XOR2, a.Nets, x.Nets)

	// SLT (signed): result bit0 = sign(a-b) XOR overflow, with
	// overflow = carryIn(msb) XOR carryOut, both taken directly from the
	// prefix carry tree so the compare resolves at adder depth.
	ovf := b.Gate(gates.XOR2, carries[width-1], cout)
	sltBit := b.Gate(gates.XOR2, sum[width-1], ovf)
	zero := b.Const(false)
	sltv := make([]Net, width)
	sltv[0] = sltBit
	for i := 1; i < width; i++ {
		sltv[i] = zero
	}

	// Shifter (shared for SHL/SHR, direction = op0: SHL=110, SHR=111).
	sh := sh5(b, x.Nets, width)
	shiftv := BarrelShifter(b, a.Nets, sh, op0)

	// Result mux tree, op = {op2,op1,op0}:
	//  op2=0: op1=0: add/sub (adder)   op1=1: op0=0 and, op0=1 or
	//  op2=1: op1=0: op0=0 xor, op0=1 slt   op1=1: shifter
	andOr := mux2Bus(b, op0, andv, orv)
	low := mux2Bus(b, op1, sum, andOr)
	xorSlt := mux2Bus(b, op0, xorv, sltv)
	high := mux2Bus(b, op1, xorSlt, shiftv)
	y := mux2Bus(b, op2, low, high)

	// Flags: carry/borrow-out. (Zero detection lives in the branch-resolve
	// stage, not here: a wide OR tree whose output almost never changes
	// value would inflate the STA period without ever being the sensitised
	// path, distorting every err(r) curve.)
	b.OutputBusN("y", y)
	b.OutputBusN("flags", []Net{cout})
	return b.MustBuild()
}

// sh5 extracts the low log2(width) bits of x as the shift amount.
func sh5(b *Builder, x []Net, width int) []Net {
	n := log2(width)
	sh := make([]Net, n)
	for i := 0; i < n; i++ {
		// Buffer so the shift-amount fanout is a distinct node.
		sh[i] = b.Gate(gates.BUF, x[i])
	}
	return sh
}

// orTree reduces a bus to a single OR with a balanced tree.
func orTree(b *Builder, v []Net) Net {
	switch len(v) {
	case 0:
		return b.Const(false)
	case 1:
		return v[0]
	}
	mid := len(v) / 2
	return b.Gate(gates.OR2, orTree(b, v[:mid]), orTree(b, v[mid:]))
}

// andTree reduces a bus to a single AND with a balanced tree.
func andTree(b *Builder, v []Net) Net {
	switch len(v) {
	case 0:
		return b.Const(true)
	case 1:
		return v[0]
	}
	mid := len(v) / 2
	return b.Gate(gates.AND2, andTree(b, v[:mid]), andTree(b, v[mid:]))
}

// NewMultiplier generates a width x width array multiplier producing a
// 2*width-bit product. Input buses "a", "b"; output bus "p".
// The carry-save array has a long structural critical path (through the
// last row's ripple), giving the ComplexALU its distinctive, deep delay
// profile.
func NewMultiplier(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("mult%d", width))
	a := b.InputBusN("a", width)
	x := b.InputBusN("b", width)
	p := multiplierArray(b, a.Nets, x.Nets)
	b.OutputBusN("p", p)
	return b.MustBuild()
}

// multiplierArray builds the unsigned carry-save array multiplier core and
// returns the 2*width product bits. Each row absorbs one partial product in
// carry-save form; a final ripple adder merges the remaining sum and carry
// vectors. The structural critical path runs down the array diagonal and
// through the final carry chain (~2*width full adders), matching the
// classic array-multiplier topology.
func multiplierArray(b *Builder, a, x []Net) []Net {
	w := len(a)
	if len(x) != w {
		panic("netlist: multiplier operand widths differ")
	}
	pp := func(i, j int) Net { return b.Gate(gates.AND2, a[j], x[i]) }
	zero := b.Const(false)
	product := make([]Net, 2*w)

	// Row 0: sum = pp[0], carries = 0. sr[j] has absolute weight i+j after
	// processing row i; cr[j] has absolute weight i+j+1.
	sr := make([]Net, w)
	cr := make([]Net, w)
	for j := 0; j < w; j++ {
		sr[j] = pp(0, j)
		cr[j] = zero
	}
	product[0] = sr[0]

	for i := 1; i < w; i++ {
		nsr := make([]Net, w)
		ncr := make([]Net, w)
		for j := 0; j < w; j++ {
			sIn := zero // sum from previous row, one column to the left
			if j+1 < w {
				sIn = sr[j+1]
			}
			nsr[j], ncr[j] = fullAdder(b, pp(i, j), sIn, cr[j])
		}
		sr, cr = nsr, ncr
		product[i] = sr[0]
	}

	// Vector-merge: remaining sum bits sr[1..w-1] (weights w..2w-2) plus
	// carries cr[0..w-1] (weights w..2w-1). The adder's carry-out is always
	// zero for genuine products, but remains connected for completeness.
	hiA := make([]Net, w)
	copy(hiA, sr[1:])
	hiA[w-1] = zero
	hi, _ := PrefixAdder(b, hiA, cr, zero)
	copy(product[w:], hi)
	return product
}

// NewDivider generates a width-bit restoring array divider: unsigned
// quotient and remainder of a/b. Input buses "a" (dividend), "b" (divisor);
// output buses "q", "r". Division by zero yields q = all-ones and r = a,
// the natural output of the restoring array (every trial subtraction
// "succeeds" against zero).
//
// The array is width rows of a (width+1)-bit subtractor plus a restore mux
// — the other half of the thesis' "ComplexALU (mult/div)" stage. It is not
// wired into NewComplexALU (whose published profiles are multiplier-based)
// but characterised standalone, like the adder-architecture netlists.
func NewDivider(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("div%d", width))
	a := b.InputBusN("a", width)
	d := b.InputBusN("b", width)
	zero := b.Const(false)
	one := b.Const(true)

	// Extend the divisor to width+1 bits and pre-invert for subtraction.
	nd := make([]Net, width+1)
	for i := 0; i < width; i++ {
		nd[i] = b.Gate(gates.INV, d.Nets[i])
	}
	nd[width] = one // ^0 for the extension bit

	// Running remainder, width+1 bits.
	rem := make([]Net, width+1)
	for i := range rem {
		rem[i] = zero
	}
	q := make([]Net, width)
	for step := width - 1; step >= 0; step-- {
		// Shift in the next dividend bit: rem = (rem << 1) | a[step].
		shifted := make([]Net, width+1)
		shifted[0] = a.Nets[step]
		copy(shifted[1:], rem[:width])
		// Trial subtraction: t = shifted - divisor = shifted + ^divisor + 1.
		t, carries := PrefixAdderCarries(b, shifted, nd, one)
		ok := carries[width+1] // carry-out == no borrow: subtraction fits
		q[step] = b.Gate(gates.BUF, ok)
		// Restore on borrow.
		rem = mux2Bus(b, ok, shifted, t)
	}
	b.OutputBusN("q", q)
	b.OutputBusN("r", rem[:width])
	return b.MustBuild()
}

// NewComplexALU generates the ComplexALU pipe-stage netlist: a width x width
// array multiplier plus a multiply-accumulate path (product low half + c).
// Input buses: "op" (1: 0=MUL, 1=MAC), "a", "b", "c" (width each).
// Output bus: "p" (2*width).
func NewComplexALU(width int) *Netlist {
	b := NewBuilder(fmt.Sprintf("complexalu%d", width))
	op := b.InputBusN("op", 1)
	a := b.InputBusN("a", width)
	x := b.InputBusN("b", width)
	c := b.InputBusN("c", width)
	prod := multiplierArray(b, a.Nets, x.Nets)
	// MAC: add the zero-extended accumulator into the full product with a
	// 2*width prefix adder (a serial carry chain into the high half would
	// create a never-sensitised STA path twice as long as the array's).
	zero := b.Const(false)
	cext := make([]Net, 2*width)
	copy(cext, c.Nets)
	for i := width; i < 2*width; i++ {
		cext[i] = zero
	}
	macOut, _ := PrefixAdder(b, prod, cext, zero)
	out := mux2Bus(b, op.Nets[0], prod, macOut)
	b.OutputBusN("p", out)
	return b.MustBuild()
}
