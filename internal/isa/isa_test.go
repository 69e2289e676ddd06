package isa

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestOpStringsAndValidity(t *testing.T) {
	for op := Op(0); op < Op(NumOps); op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "Op(") {
			t.Errorf("op %d has no mnemonic: %q", op, s)
		}
	}
	if got := Op(NumOps).String(); got != fmt.Sprintf("Op(%d)", NumOps) {
		t.Errorf("first out-of-range op renders as %q", got)
	}
	if Op(200).String() == "" {
		t.Error("out-of-range op must still render")
	}
}

func TestClasses(t *testing.T) {
	cases := map[Op]Class{
		NOP: ClassNone, JMP: ClassNone,
		ADD: ClassSimple, SUB: ClassSimple, AND: ClassSimple, OR: ClassSimple,
		XOR: ClassSimple, SLT: ClassSimple, SHL: ClassSimple, SHR: ClassSimple,
		ADDI: ClassSimple,
		MUL:  ClassComplex, MAC: ClassComplex,
		LD: ClassMem, ST: ClassMem,
		BEQ: ClassBranch, BNE: ClassBranch,
	}
	if len(cases) != NumOps {
		t.Fatalf("class table covers %d of %d ops", len(cases), NumOps)
	}
	for op, want := range cases {
		if got := op.Class(); got != want {
			t.Errorf("%v.Class() = %v, want %v", op, got, want)
		}
	}
}

func TestEncodeFieldPlacement(t *testing.T) {
	w := Encode(Inst{Op: ADD, Rd: 0x1f, Rs: 0x15, Rt: 0x0a})
	if w>>26 != uint32(ADD) {
		t.Errorf("opcode field = %#x", w>>26)
	}
	if w>>21&0x1f != 0x1f {
		t.Errorf("rd field = %#x", w>>21&0x1f)
	}
	if w>>16&0x1f != 0x15 {
		t.Errorf("rs field = %#x", w>>16&0x1f)
	}
	if w>>11&0x1f != 0x0a {
		t.Errorf("rt field = %#x", w>>11&0x1f)
	}
	// I-format: imm occupies the low half.
	w = Encode(Inst{Op: ADDI, C: 0xBEEF})
	if uint16(w) != 0xBEEF {
		t.Errorf("imm field = %#x", uint16(w))
	}
}

// The immediate round-trips through C; an R-format op decodes with C = 0.
func TestDecodeIsEncodeInverse(t *testing.T) {
	f := func(opRaw, rd, rs, rt uint8, imm uint16) bool {
		in := Inst{Op: Op(opRaw % uint8(NumOps)), Rd: rd & 31, Rs: rs & 31, Rt: rt & 31, C: uint32(imm)}
		out := Decode(Encode(in))
		if out.Op != in.Op || out.Rd != in.Rd || out.Rs != in.Rs {
			return false
		}
		switch in.Op {
		case ADDI, LD, ST, BEQ, BNE, JMP:
			return out.C == uint32(imm) && out.Imm() == imm && out.Rt == 0
		default:
			return out.Rt == in.Rt && out.C == 0 && out.Imm() == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestALUResultMatchesGo(t *testing.T) {
	f := func(a, b uint32) bool {
		if ALUResult(ADD, a, b) != a+b {
			return false
		}
		if ALUResult(SUB, a, b) != a-b {
			return false
		}
		if ALUResult(AND, a, b) != a&b || ALUResult(OR, a, b) != a|b || ALUResult(XOR, a, b) != a^b {
			return false
		}
		slt := uint32(0)
		if int32(a) < int32(b) {
			slt = 1
		}
		if ALUResult(SLT, a, b) != slt {
			return false
		}
		return ALUResult(SHL, a, b) == a<<(b&31) && ALUResult(SHR, a, b) == a>>(b&31)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestALUResultPanicsOnNonSimple(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MUL through ALUResult did not panic")
		}
	}()
	ALUResult(MUL, 1, 2)
}

// A dynamic instruction takes 16 bytes: the immediate, the address and the
// result are derived, not stored.
func TestInstIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 16 {
		t.Fatalf("Sizeof(Inst) = %d, want 16", got)
	}
}

func TestDerivedFields(t *testing.T) {
	cases := []struct {
		in           Inst
		imm          uint16
		addr, result uint32
	}{
		{Inst{Op: ADD, A: 3, B: 4}, 0, 0, 7},
		{Inst{Op: ADDI, A: 5, B: 0xFFFFFFFF, C: 0xFFFF}, 0xFFFF, 0, 4},
		{Inst{Op: MUL, A: 0x10000, B: 0x10003}, 0, 0, 0x30000},
		{Inst{Op: MAC, A: 6, B: 7, C: 8}, 0, 0, 50}, // C is the accumulator, not an immediate
		{Inst{Op: LD, A: 0x1234, C: 0x34}, 0x34, 0x1234, 0},
		{Inst{Op: ST, A: 0x2000}, 0, 0x2000, 0},
		{Inst{Op: BEQ, A: 3, B: 3, C: 0xFFF0}, 0xFFF0, 0, 1},
		{Inst{Op: BEQ, A: 3, B: 4, C: 0xFFF0}, 0xFFF0, 0, 0},
		{Inst{Op: BNE, A: 3, B: 4, C: 0xFFF0}, 0xFFF0, 0, 1},
		{Inst{Op: BNE, A: 3, B: 3, C: 0xFFF0}, 0xFFF0, 0, 0},
		{Inst{Op: NOP}, 0, 0, 0},
		{Inst{Op: JMP, C: 0x10}, 0x10, 0, 0},
	}
	for _, c := range cases {
		if got := c.in.Imm(); got != c.imm {
			t.Errorf("%+v: Imm() = %#x, want %#x", c.in, got, c.imm)
		}
		if got := c.in.Addr(); got != c.addr {
			t.Errorf("%+v: Addr() = %#x, want %#x", c.in, got, c.addr)
		}
		if got := c.in.Result(); got != c.result {
			t.Errorf("%+v: Result() = %#x, want %#x", c.in, got, c.result)
		}
	}
}
