// Package workload implements the barrier-parallel kernel framework and the
// ten SPLASH-2-like benchmarks that drive the SynTS evaluation.
//
// The paper runs SPLASH-2 binaries on gem5 and extracts, for every thread,
// the cycle-by-cycle input vectors of each pipe stage. We substitute real
// parallel algorithms written in Go against the TC (thread context) API:
// every arithmetic operation both computes its Go result and emits an
// isa.Inst carrying the actual operand values. The resulting per-thread,
// per-barrier-interval instruction streams are exactly the artefact the
// cross-layer methodology needs — operand values sensitize circuit paths,
// opcode mixes drive the Decode stage, and load/store addresses drive the
// cache model that yields per-thread CPI.
//
// Thread-level heterogeneity (the phenomenon SynTS exploits) is not
// injected: it emerges from the algorithms and their data distributions,
// e.g. the thread of the radix kernel that owns the large-magnitude keys
// sensitizes longer carry chains than its siblings.
package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"synts/internal/fixedpoint"
	"synts/internal/isa"
)

// Stream is the dynamic instruction trace of one thread, split at barriers.
type Stream struct {
	Thread    int
	Intervals [][]isa.Inst
}

// TotalInstructions returns the instruction count across all intervals.
func (s *Stream) TotalInstructions() int {
	n := 0
	for _, iv := range s.Intervals {
		n += len(iv)
	}
	return n
}

// Barrier is a reusable sense-reversing barrier for n participants.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	sense   bool
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all n participants have called Wait.
func (b *Barrier) Wait() {
	b.mu.Lock()
	sense := b.sense
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.sense = !b.sense
		b.cond.Broadcast()
	} else {
		for b.sense == sense {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// chunkSize is the length of the chunks a thread records its open barrier
// interval in (8,192 instructions, 128 KiB).
const chunkSize = 8192

// TC is the per-thread context handed to kernel bodies. Every operation
// method computes the architectural result in Go *and* appends the dynamic
// instruction (with live operand values) to the thread's trace.
// TC is not safe for concurrent use; each thread owns its own.
//
// The open interval is recorded in fixed-size chunks that the thread
// reuses from one interval to the next, and a barrier seals it into one
// exactly sized slice, so a kernel run allocates about twice the
// instruction bytes it keeps instead of regrowing every interval.
type TC struct {
	id      int
	threads int
	barrier *Barrier
	rng     *rand.Rand
	chunks  [][]isa.Inst // each chunkSize long; chunk k holds instructions k*chunkSize...
	n       int          // instructions in the open interval
	out     *Stream
	regCtr  uint32
}

// ID returns the thread index in [0, NumThreads).
func (tc *TC) ID() int { return tc.id }

// NumThreads returns the number of threads in the program.
func (tc *TC) NumThreads() int { return tc.threads }

// Rng returns the thread's deterministic random source (seeded from the
// program seed and thread id).
func (tc *TC) Rng() *rand.Rand { return tc.rng }

// regs produces a plausible rotating register assignment for the encoding.
func (tc *TC) regs() (rd, rs, rt uint8) {
	n := tc.regCtr
	tc.regCtr++
	return uint8(1 + n%30), uint8(1 + (n+7)%30), uint8(1 + (n+13)%30)
}

// emit records one instruction; c is the immediate of an I-format op.
func (tc *TC) emit(op isa.Op, a, b, c uint32) {
	rd, rs, rt := tc.regs()
	k := tc.n / chunkSize
	if k == len(tc.chunks) {
		tc.chunks = append(tc.chunks, make([]isa.Inst, chunkSize))
	}
	tc.chunks[k][tc.n%chunkSize] = isa.Inst{Op: op, Rd: rd, Rs: rs, Rt: rt, A: a, B: b, C: c}
	tc.n++
}

// seal appends the open interval to the stream as one exactly sized slice
// (nil when empty) and starts the next interval in the same chunks.
func (tc *TC) seal() {
	var iv []isa.Inst
	if tc.n > 0 {
		iv = make([]isa.Inst, tc.n)
		for off := 0; off < tc.n; off += chunkSize {
			copy(iv[off:], tc.chunks[off/chunkSize])
		}
	}
	tc.out.Intervals = append(tc.out.Intervals, iv)
	tc.n = 0
}

// Add emits ADD and returns a+b.
func (tc *TC) Add(a, b uint32) uint32 {
	tc.emit(isa.ADD, a, b, 0)
	return a + b
}

// Sub emits SUB and returns a-b.
func (tc *TC) Sub(a, b uint32) uint32 {
	tc.emit(isa.SUB, a, b, 0)
	return a - b
}

// And emits AND and returns a&b.
func (tc *TC) And(a, b uint32) uint32 {
	tc.emit(isa.AND, a, b, 0)
	return a & b
}

// Slt emits SLT and returns 1 if int32(a) < int32(b), else 0.
func (tc *TC) Slt(a, b uint32) uint32 {
	tc.emit(isa.SLT, a, b, 0)
	return isa.ALUResult(isa.SLT, a, b)
}

// Shr emits SHR and returns a >> (sh & 31) (logical).
func (tc *TC) Shr(a, sh uint32) uint32 {
	tc.emit(isa.SHR, a, sh, 0)
	return a >> (sh & 31)
}

// AddI emits ADDI and returns a plus the sign-extended immediate.
func (tc *TC) AddI(a uint32, imm uint16) uint32 {
	b := uint32(int32(int16(imm)))
	tc.emit(isa.ADDI, a, b, uint32(imm))
	return a + b
}

// Mul emits MUL and returns the full 64-bit unsigned product of the bit
// patterns. Kernels that need signed semantics interpret the result
// themselves; the circuit sees the raw operands either way.
func (tc *TC) Mul(a, b uint32) uint64 {
	tc.emit(isa.MUL, a, b, 0)
	return uint64(a) * uint64(b)
}

// Mac emits MAC and returns a*b + c (low 64 bits).
func (tc *TC) Mac(a, b, c uint32) uint64 {
	tc.emit(isa.MAC, a, b, c)
	return uint64(a)*uint64(b) + uint64(c)
}

// Load emits LD for the effective address; the datum itself lives in the
// kernel's Go data structures. The address drives the cache model. The
// encoded displacement is the small word-aligned offset a compiler would
// fold into the instruction, with the bulk of the address in the base
// register.
func (tc *TC) Load(addr uint32) {
	tc.emit(isa.LD, addr, 0, addr&0x7C)
}

// Store emits ST for the effective address.
func (tc *TC) Store(addr uint32) {
	tc.emit(isa.ST, addr, 0, addr&0x7C)
}

// branchImm is the canonical backward loop displacement encoded in branch
// instructions (-16 words), so taken branches move the PC discontinuously.
const branchImm = 0xFFF0

// BranchEq emits BEQ and reports whether the branch is taken, which the
// fetch-path model reads back from the operands (isa.Inst.Result).
func (tc *TC) BranchEq(a, b uint32) bool {
	tc.emit(isa.BEQ, a, b, branchImm)
	return a == b
}

// BranchNe emits BNE and reports whether the branch is taken.
func (tc *TC) BranchNe(a, b uint32) bool {
	tc.emit(isa.BNE, a, b, branchImm)
	return a != b
}

// Nop emits NOP.
func (tc *TC) Nop() { tc.emit(isa.NOP, 0, 0, 0) }

// Loop runs body(i) for i in [0,n) and emits the loop-control overhead a
// compiled counted loop would execute: increment and backward branch per
// iteration.
func (tc *TC) Loop(n int, body func(i int)) {
	i := uint32(0)
	for int(i) < n {
		body(int(i))
		i = tc.AddI(i, 1)
		tc.BranchNe(i, uint32(n))
	}
}

// Barrier ends the current barrier interval: the buffered instructions are
// sealed into the stream and the thread blocks until all threads arrive.
func (tc *TC) Barrier() {
	tc.seal()
	tc.barrier.Wait()
}

// Fixed-point convenience wrappers: emit the underlying integer ops and
// return exact fixed-point results.

// QAdd emits an ADD of the raw bit patterns and returns a+b.
func (tc *TC) QAdd(a, b fixedpoint.Q) fixedpoint.Q {
	tc.Add(a.Bits(), b.Bits())
	return a + b
}

// QSub emits a SUB and returns a-b.
func (tc *TC) QSub(a, b fixedpoint.Q) fixedpoint.Q {
	tc.Sub(a.Bits(), b.Bits())
	return a - b
}

// QMul emits a MUL of the raw bit patterns and a SHR for the radix-point
// realignment, returning the Q16.16 product.
func (tc *TC) QMul(a, b fixedpoint.Q) fixedpoint.Q {
	p := tc.Mul(a.Bits(), b.Bits())
	tc.Shr(uint32(p), 16) // radix-point realignment of the product low half
	return fixedpoint.Mul(a, b)
}

// QMac emits a fused multiply-accumulate (the ComplexALU's MAC path, which
// compiled inner products use) and returns acc + a*b.
func (tc *TC) QMac(acc, a, b fixedpoint.Q) fixedpoint.Q {
	tc.Mac(a.Bits(), b.Bits(), acc.Bits())
	return acc + fixedpoint.Mul(a, b)
}

// QDiv computes a/b by Newton–Raphson reciprocal refinement, emitting the
// multiply/subtract sequence a software divide executes, and returns the
// exact quotient.
func (tc *TC) QDiv(a, b fixedpoint.Q) fixedpoint.Q {
	exact := fixedpoint.Div(a, b)
	// Two refinement iterations: x' = x(2 - b*x).
	x := fixedpoint.FromFloat(1.0 / 8)
	for i := 0; i < 2; i++ {
		bx := tc.QMul(fixedpoint.Abs(b), x)
		x = tc.QMul(x, tc.QSub(fixedpoint.FromInt(2), bx))
	}
	tc.Mul(a.Bits(), x.Bits())
	return exact
}

// QSqrt computes sqrt(a) by Newton iteration, emitting the corresponding
// multiply/add stream, and returns the exact root.
func (tc *TC) QSqrt(a fixedpoint.Q) fixedpoint.Q {
	exact := fixedpoint.Sqrt(a)
	x := fixedpoint.Max(a, fixedpoint.One)
	for i := 0; i < 3; i++ {
		if x == 0 {
			break
		}
		q := tc.QMul(x, x)
		x = fixedpoint.Q(uint32(tc.Add(q.Bits(), a.Bits())) >> 1)
		x = fixedpoint.Abs(x)
		if x == 0 {
			x = fixedpoint.One
		}
	}
	return exact
}

// Run executes body on `threads` goroutine-threads with a shared barrier and
// returns the per-thread streams. seed makes the data deterministic. The
// final (possibly empty) interval is sealed automatically so every stream
// has the same number of intervals.
func Run(threads int, seed int64, body func(tc *TC)) []*Stream {
	if threads <= 0 {
		panic(fmt.Sprintf("workload: invalid thread count %d", threads))
	}
	streams := make([]*Stream, threads)
	bar := NewBarrier(threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		streams[t] = &Stream{Thread: t}
		tc := &TC{
			id:      t,
			threads: threads,
			barrier: bar,
			rng:     rand.New(rand.NewSource(seed*7919 + int64(t)*104729 + 1)),
			out:     streams[t],
		}
		wg.Add(1)
		go func(tc *TC) {
			defer wg.Done()
			body(tc)
			tc.seal()
		}(tc)
	}
	wg.Wait()
	// Kernels that end exactly at a barrier leave a trailing interval that
	// is empty on every thread; drop it so downstream consumers see only
	// real barrier intervals.
	last := len(streams[0].Intervals) - 1
	allEmpty := true
	for _, s := range streams {
		if len(s.Intervals[last]) != 0 {
			allEmpty = false
			break
		}
	}
	if allEmpty && last > 0 {
		for _, s := range streams {
			s.Intervals = s.Intervals[:last]
		}
	}
	return streams
}
