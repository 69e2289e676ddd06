// Package gpgpu reproduces the thesis' GPGPU case study (§3.2, §5.5): a
// Radeon HD 7970-style SIMD unit with 16 vector-ALU lanes executing
// data-parallel kernels in lock-step. The study's finding is negative —
// because every lane executes the same instruction on adjacent work-items'
// data, the per-lane output statistics (consecutive-output Hamming
// distances, Fig 5.10) and therefore the path-sensitization profiles are
// homogeneous, so per-core timing speculation is already optimal and the
// SynTS machinery adds nothing for this architecture.
//
// The paper drives MIAOW RTL with Multi2Sim traces; we substitute the
// SimpleALU stage netlist per lane, driven by lock-step instruction
// streams from synthetic ports of the listed benchmarks.
package gpgpu

import (
	"fmt"
	"math/rand"

	"synts/internal/fixedpoint"
	"synts/internal/isa"
	"synts/internal/stats"
	"synts/internal/trace"
)

// LaneCount is the number of vector-ALU lanes per SIMD unit (the HD 7970
// groups 16 work-items per cycle on each of its 4 VALUs).
const LaneCount = 16

// VInst is one lock-step vector instruction: the same operation applied to
// per-lane operands.
type VInst struct {
	Op   isa.Op
	A, B [LaneCount]uint32
}

// Program is a vector-instruction trace for one SIMD unit.
type Program struct {
	Name  string
	Insts []VInst
}

// vecBuilder records a generator's vector instructions. ProgramByName runs
// a generator twice: a counting pass (insts nil) only counts its
// instructions, and a recording pass writes them into a slice of exactly
// that length.
type vecBuilder struct {
	insts []VInst
	n     int
}

func (vb *vecBuilder) emit(op isa.Op, a, b [LaneCount]uint32) [LaneCount]uint32 {
	if vb.n < len(vb.insts) {
		vb.insts[vb.n] = VInst{Op: op, A: a, B: b}
	}
	vb.n++
	var out [LaneCount]uint32
	for l := 0; l < LaneCount; l++ {
		out[l] = laneResult(op, a[l], b[l])
	}
	return out
}

// laneResult is one lane's output of op: the SimpleALU result, the low
// word of a ComplexALU product, or the first operand of any other op.
func laneResult(op isa.Op, a, b uint32) uint32 {
	switch op.Class() {
	case isa.ClassSimple:
		return isa.ALUResult(op, a, b)
	case isa.ClassComplex:
		return uint32(uint64(a) * uint64(b))
	default:
		return a
	}
}

type vec = [LaneCount]uint32

func qv(f func(l int) fixedpoint.Q) vec {
	var v vec
	for l := range v {
		v[l] = f(l).Bits()
	}
	return v
}

func (vb *vecBuilder) qop(op isa.Op, a, b vec) vec { return vb.emit(op, a, b) }

// catalog lists the benchmark set of §5.5. Each generator seeds its own
// rand source from seed+k, so it emits the same instructions on every
// call, and n is the iteration count (the thesis analyses 16k
// instructions per VALU). Adjacent lanes process adjacent work-items, the
// source of the homogeneity.
var catalog = []struct {
	name string
	gen  func(vb *vecBuilder, n int, seed int64)
}{
	{"BlackScholes", blackScholes},
	{"MatrixMult", matrixMult},
	{"BinarySearch", binarySearch},
	{"FFT", fftG},
	{"EigenValue", eigenValue},
	{"StreamCluster", streamCluster},
	{"Raytrace", raytraceG},
	{"Swaptions", swaptions},
	{"X264", x264},
}

// ProgramByName generates the named program of the catalog into one
// exactly sized slice: a counting pass of its generator sizes it. n is
// the generator's iteration count, not the program's length: each
// iteration emits several vector instructions (four for BlackScholes).
func ProgramByName(name string, n int, seed int64) (Program, error) {
	for _, c := range catalog {
		if c.name == name {
			count := &vecBuilder{}
			c.gen(count, n, seed)
			rec := &vecBuilder{insts: make([]VInst, count.n)}
			c.gen(rec, n, seed)
			return Program{Name: name, Insts: rec.insts}, nil
		}
	}
	return Program{}, fmt.Errorf("gpgpu: unknown program %q", name)
}

// blackScholes prices adjacent strikes per lane: mul/div-heavy.
func blackScholes(vb *vecBuilder, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		// Adjacent work-items price adjacent options: same distribution,
		// slightly different draws per lane.
		spot := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(100 + rng.Float64()*2) })
		strike := qv(func(l int) fixedpoint.Q {
			return fixedpoint.FromFloat(90 + float64(i%20) + rng.Float64())
		})
		d := vb.qop(isa.SUB, spot, strike)
		d2 := vb.qop(isa.MUL, d, d)
		vb.qop(isa.SHR, d2, allLanes(16))
		vb.qop(isa.ADD, d, strike)
	}
}

// matrixMult computes adjacent output elements as MAC chains.
func matrixMult(vb *vecBuilder, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed + 1))
	var acc vec
	for i := 0; i < n; i++ {
		a := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(rng.Float64()*4 - 2) })
		b := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(0.5 + rng.Float64()) })
		p := vb.qop(isa.MUL, a, b)
		acc = vb.qop(isa.ADD, acc, p)
	}
}

// binarySearch: adjacent keys, compare-and-halve index arithmetic.
func binarySearch(vb *vecBuilder, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed + 2))
	var lo, hi vec
	for l := range hi {
		hi[l] = 1 << 20
	}
	for i := 0; i < n; i++ {
		mid := vb.emit(isa.ADD, lo, hi)
		mid = vb.emit(isa.SHR, mid, allLanes(1))
		key := qv(func(l int) fixedpoint.Q { return fixedpoint.Q(rng.Int31n(1 << 20)) })
		cmp := vb.emit(isa.SLT, key, mid)
		for l := range lo {
			if cmp[l] == 1 {
				hi[l] = mid[l]
			} else {
				lo[l] = mid[l]
			}
			if hi[l] <= lo[l]+1 {
				lo[l], hi[l] = 0, 1<<20
			}
		}
	}
}

// fftG: butterfly arithmetic on adjacent bins.
func fftG(vb *vecBuilder, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed + 3))
	for i := 0; i < n; i++ {
		// Fresh full-scale bins each butterfly: lock-step lanes over
		// identically distributed data.
		re := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(rng.Float64()*200 - 100) })
		im := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(rng.Float64()*200 - 100) })
		w := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(0.7 + rng.Float64()*0.3) })
		tr := vb.qop(isa.MUL, w, re)
		ti := vb.qop(isa.MUL, w, im)
		vb.qop(isa.ADD, re, ti)
		vb.qop(isa.SUB, im, tr)
	}
}

// eigenValue: power-iteration style normalize-and-multiply.
func eigenValue(vb *vecBuilder, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed + 4))
	x := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(1 + rng.Float64()*0.1) })
	for i := 0; i < n; i++ {
		a := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(rng.Float64() + 0.5) })
		y := vb.qop(isa.MUL, a, x)
		s := vb.qop(isa.SHR, y, allLanes(8))
		x = vb.qop(isa.OR, s, allLanes(1))
	}
}

// streamCluster: distance computations to adjacent cluster centres.
func streamCluster(vb *vecBuilder, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed + 5))
	for i := 0; i < n; i++ {
		p := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(rng.Float64() * 50) })
		c := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(25 + rng.Float64()*2) })
		d := vb.qop(isa.SUB, p, c)
		d2 := vb.qop(isa.MUL, d, d)
		vb.qop(isa.ADD, d2, d)
	}
}

// raytraceG: packetised ray-sphere discriminants — adjacent rays per lane.
func raytraceG(vb *vecBuilder, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed + 6))
	for i := 0; i < n; i++ {
		dx := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(rng.Float64()*8 - 4) })
		dy := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(rng.Float64()*8 - 4) })
		cz := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(40 + rng.Float64()*10) })
		dc := vb.qop(isa.MUL, dx, cz)
		d2 := vb.qop(isa.MUL, dx, dx)
		e2 := vb.qop(isa.MUL, dy, dy)
		s := vb.qop(isa.ADD, d2, e2)
		vb.qop(isa.SUB, dc, s) // discriminant core
	}
}

// swaptions: discounted cash-flow accumulation per lane.
func swaptions(vb *vecBuilder, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed + 7))
	var acc vec
	for i := 0; i < n; i++ {
		rate := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(0.97 + rng.Float64()*0.02) })
		cash := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(50 + rng.Float64()*10) })
		d := vb.qop(isa.MUL, rate, cash)
		acc = vb.qop(isa.ADD, acc, d)
		if i%16 == 15 {
			acc = vb.qop(isa.SHR, acc, allLanes(4)) // renormalise
		}
	}
}

// x264: sum-of-absolute-differences motion estimation per lane.
func x264(vb *vecBuilder, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed + 8))
	var sad vec
	for i := 0; i < n; i++ {
		// 8-bit pixel blocks: narrow operands, like real SAD kernels.
		cur := qv(func(l int) fixedpoint.Q { return fixedpoint.Q(rng.Int31n(256)) })
		ref := qv(func(l int) fixedpoint.Q { return fixedpoint.Q(rng.Int31n(256)) })
		d := vb.qop(isa.SUB, cur, ref)
		mask := vb.qop(isa.SLT, d, allLanes(0)) // sign
		var absd vec
		for l := range absd {
			if mask[l] == 1 {
				absd[l] = -d[l]
			} else {
				absd[l] = d[l]
			}
		}
		sad = vb.qop(isa.ADD, sad, absd)
		if i%64 == 63 {
			sad = vb.qop(isa.AND, sad, allLanes(0xFFFF)) // block boundary
		}
	}
}

func allLanes(v uint32) vec {
	var out vec
	for l := range out {
		out[l] = v
	}
	return out
}

// HammingHistograms returns the Fig 5.10 artefact: each lane's histogram of
// consecutive-output Hamming distances. One walk of the program executes
// every lane and keeps only each lane's previous output.
func HammingHistograms(p Program) [LaneCount]*stats.Histogram {
	var hs [LaneCount]*stats.Histogram
	for l := range hs {
		hs[l] = stats.NewHistogram(33)
	}
	var prev [LaneCount]uint32
	for i, vi := range p.Insts {
		for l := range hs {
			r := laneResult(vi.Op, vi.A[l], vi.B[l])
			if i > 0 {
				hs[l].Add(stats.HammingDistance(prev[l], r))
			}
			prev[l] = r
		}
	}
	return hs
}

// Homogeneity summarises how alike the lanes are.
type Homogeneity struct {
	// MaxPairDistance is the largest L1 distance between any two lanes'
	// normalized Hamming histograms (0 = identical, 2 = disjoint).
	MaxPairDistance float64
	// ErrSpread is the largest across-lane difference in error
	// probability at the most aggressive TSR, from per-lane delay traces
	// of the vector-ALU netlist.
	ErrSpread float64
}

// LaneErr returns each lane's empirical error probability at TSR r, from
// the vector-ALU (SimpleALU netlist) delay trace of its work-item stream.
// One buffer holds each lane's scalar instructions in turn:
// (*StageCircuit).Profile keeps no reference to the window it is given.
func LaneErr(p Program, r float64) [LaneCount]float64 {
	var out [LaneCount]float64
	iv := make([]isa.Inst, len(p.Insts))
	for l := 0; l < LaneCount; l++ {
		for i, vi := range p.Insts {
			iv[i] = isa.Inst{Op: vi.Op, A: vi.A[l], B: vi.B[l]}
		}
		out[l] = trace.NewStageCircuit(trace.SimpleALU).Profile(iv).Err(r)
	}
	return out
}

// Analyze runs the full §5.5 study for one program, given its lanes'
// Hamming histograms (HammingHistograms(p)).
func Analyze(p Program, hs [LaneCount]*stats.Histogram) Homogeneity {
	var h Homogeneity
	for i := 0; i < LaneCount; i++ {
		for j := i + 1; j < LaneCount; j++ {
			if d := stats.Distance(hs[i], hs[j]); d > h.MaxPairDistance {
				h.MaxPairDistance = d
			}
		}
	}
	errs := LaneErr(p, 0.64)
	lo, hi := errs[0], errs[0]
	for _, e := range errs {
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	h.ErrSpread = hi - lo
	return h
}
