// Package isa defines the miniature RISC instruction set whose encodings
// drive the Decode pipe-stage netlist and whose dynamic instruction streams
// drive the ALU stages.
//
// The paper extracts cycle-by-cycle input vectors from gem5 running Alpha
// binaries. We substitute a compact 32-bit RISC encoding: the workload
// kernels emit these instructions as they execute, and each stage's input
// vector is derived from them (the Decode stage sees the encoded word, the
// ALU stages see the operand values).
//
// Word layout (little-endian bit numbering):
//
//	[31:26] opcode
//	[25:21] rd
//	[20:16] rs
//	[15:11] rt     (R-format)
//	[15:0]  imm16  (I-format)
package isa

import "fmt"

// Op is an operation code.
type Op uint8

// Operation codes. The SimpleALU class covers ADD..SHR (and their immediate
// forms share the adder); MUL/MAC are the ComplexALU class; LD/ST/branches
// exercise Decode and the memory system.
const (
	NOP Op = iota
	ADD
	SUB
	AND
	OR
	XOR
	SLT
	SHL
	SHR
	ADDI
	MUL
	MAC
	LD
	ST
	BEQ
	BNE
	JMP
	numOps
)

var opNames = [numOps]string{
	"NOP", "ADD", "SUB", "AND", "OR", "XOR", "SLT", "SHL", "SHR",
	"ADDI", "MUL", "MAC", "LD", "ST", "BEQ", "BNE", "JMP",
}

// NumOps is the number of defined operations.
const NumOps = int(numOps)

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Class buckets operations by the pipe stage that executes them.
type Class uint8

// Instruction classes: which execution resource an op occupies.
const (
	ClassNone    Class = iota // NOP, JMP
	ClassSimple               // SimpleALU: add/sub/logic/shift/compare (incl. address generation)
	ClassComplex              // ComplexALU: multiply, multiply-accumulate
	ClassMem                  // memory access (address generation on SimpleALU + cache)
	ClassBranch               // branch compare on SimpleALU
)

// Class returns the execution class of the op.
func (o Op) Class() Class {
	switch o {
	case ADD, SUB, AND, OR, XOR, SLT, SHL, SHR, ADDI:
		return ClassSimple
	case MUL, MAC:
		return ClassComplex
	case LD, ST:
		return ClassMem
	case BEQ, BNE:
		return ClassBranch
	default:
		return ClassNone
	}
}

// Inst is a dynamic instruction: the executed operation together with its
// register fields and the operand *values* observed at execute time. The
// values are what sensitise paths in the ALU netlists. An I-format op
// carries its immediate in C, which no I-format op uses as an operand; the
// immediate, the effective address and the result are derived from the
// stored fields (Imm, Addr, Result), so an instruction takes 16 bytes.
type Inst struct {
	Op   Op
	Rd   uint8  // destination register (0..31)
	Rs   uint8  // first source register
	Rt   uint8  // second source register / store data register
	A, B uint32 // source operand values at execute (A is the address for LD/ST)
	C    uint32 // MAC accumulator; the zero-extended immediate for I-format ops
}

// IFormat reports whether the op encodes a 16-bit immediate instead of rt.
func (o Op) IFormat() bool {
	switch o {
	case ADDI, LD, ST, BEQ, BNE, JMP:
		return true
	}
	return false
}

// Imm returns the immediate of an I-format op and 0 for any other.
func (in Inst) Imm() uint16 {
	if in.Op.IFormat() {
		return uint16(in.C)
	}
	return 0
}

// Addr returns the effective address of LD/ST and 0 for any other op.
func (in Inst) Addr() uint32 {
	if in.Op.Class() == ClassMem {
		return in.A
	}
	return 0
}

// Result returns the architectural result: the ALU result of a
// SimpleALU-class op, the low word of the product (plus C for MAC) of a
// ComplexALU op, the outcome of a branch (1 = taken), and 0 for any other
// op.
func (in Inst) Result() uint32 {
	switch in.Op.Class() {
	case ClassSimple:
		return ALUResult(in.Op, in.A, in.B)
	case ClassComplex:
		p := in.A * in.B
		if in.Op == MAC {
			p += in.C
		}
		return p
	case ClassBranch:
		if (in.A == in.B) == (in.Op == BEQ) {
			return 1
		}
	}
	return 0
}

// Encode packs the static fields into the 32-bit instruction word that the
// Decode stage receives.
func Encode(in Inst) uint32 {
	w := uint32(in.Op&0x3f) << 26
	w |= uint32(in.Rd&0x1f) << 21
	w |= uint32(in.Rs&0x1f) << 16
	if in.Op.IFormat() {
		w |= uint32(in.Imm())
	} else {
		w |= uint32(in.Rt&0x1f) << 11
	}
	return w
}

// Decode unpacks an instruction word into its static fields, the immediate
// into C. Operand values are, of course, not recoverable from the encoding.
func Decode(w uint32) Inst {
	in := Inst{
		Op: Op(w >> 26 & 0x3f),
		Rd: uint8(w >> 21 & 0x1f),
		Rs: uint8(w >> 16 & 0x1f),
	}
	if in.Op.IFormat() {
		in.C = w & 0xffff
	} else {
		in.Rt = uint8(w >> 11 & 0x1f)
	}
	return in
}

// ALUResult computes the architectural result of a SimpleALU-class op on
// 32-bit operands, mirroring the SimpleALU netlist semantics (logical
// shifts, signed SLT).
func ALUResult(op Op, a, b uint32) uint32 {
	switch op {
	case ADD, ADDI:
		return a + b
	case SUB:
		return a - b
	case AND:
		return a & b
	case OR:
		return a | b
	case XOR:
		return a ^ b
	case SLT:
		if int32(a) < int32(b) {
			return 1
		}
		return 0
	case SHL:
		return a << (b & 31)
	case SHR:
		return a >> (b & 31)
	default:
		panic("isa: ALUResult called with non-SimpleALU op " + op.String())
	}
}
