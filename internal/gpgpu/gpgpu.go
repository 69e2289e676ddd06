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

// vecBuilder accumulates a Program from per-lane fixed-point helpers.
type vecBuilder struct {
	prog Program
}

func (vb *vecBuilder) emit(op isa.Op, a, b [LaneCount]uint32) [LaneCount]uint32 {
	vb.prog.Insts = append(vb.prog.Insts, VInst{Op: op, A: a, B: b})
	var out [LaneCount]uint32
	for l := 0; l < LaneCount; l++ {
		switch op.Class() {
		case isa.ClassSimple:
			out[l] = isa.ALUResult(op, a[l], b[l])
		case isa.ClassComplex:
			out[l] = uint32(uint64(a[l]) * uint64(b[l]))
		default:
			out[l] = a[l]
		}
	}
	return out
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
// rand source from seed+k, and n is the iteration count (the thesis
// analyses 16k instructions per VALU). Adjacent lanes process adjacent
// work-items, the source of the homogeneity.
var catalog = []struct {
	name string
	gen  func(n int, seed int64) Program
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

// ProgramByName generates the named program of the catalog.
func ProgramByName(name string, n int, seed int64) (Program, error) {
	for _, c := range catalog {
		if c.name == name {
			return c.gen(n, seed), nil
		}
	}
	return Program{}, fmt.Errorf("gpgpu: unknown program %q", name)
}

// blackScholes prices adjacent strikes per lane: mul/div-heavy.
func blackScholes(n int, seed int64) Program {
	rng := rand.New(rand.NewSource(seed))
	vb := &vecBuilder{prog: Program{Name: "BlackScholes"}}
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
	return vb.prog
}

// matrixMult computes adjacent output elements as MAC chains.
func matrixMult(n int, seed int64) Program {
	rng := rand.New(rand.NewSource(seed + 1))
	vb := &vecBuilder{prog: Program{Name: "MatrixMult"}}
	var acc vec
	for i := 0; i < n; i++ {
		a := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(rng.Float64()*4 - 2) })
		b := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(0.5 + rng.Float64()) })
		p := vb.qop(isa.MUL, a, b)
		acc = vb.qop(isa.ADD, acc, p)
	}
	return vb.prog
}

// binarySearch: adjacent keys, compare-and-halve index arithmetic.
func binarySearch(n int, seed int64) Program {
	rng := rand.New(rand.NewSource(seed + 2))
	vb := &vecBuilder{prog: Program{Name: "BinarySearch"}}
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
	return vb.prog
}

// fftG: butterfly arithmetic on adjacent bins.
func fftG(n int, seed int64) Program {
	rng := rand.New(rand.NewSource(seed + 3))
	vb := &vecBuilder{prog: Program{Name: "FFT"}}
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
	return vb.prog
}

// eigenValue: power-iteration style normalize-and-multiply.
func eigenValue(n int, seed int64) Program {
	rng := rand.New(rand.NewSource(seed + 4))
	vb := &vecBuilder{prog: Program{Name: "EigenValue"}}
	x := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(1 + rng.Float64()*0.1) })
	for i := 0; i < n; i++ {
		a := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(rng.Float64() + 0.5) })
		y := vb.qop(isa.MUL, a, x)
		s := vb.qop(isa.SHR, y, allLanes(8))
		x = vb.qop(isa.OR, s, allLanes(1))
	}
	return vb.prog
}

// streamCluster: distance computations to adjacent cluster centres.
func streamCluster(n int, seed int64) Program {
	rng := rand.New(rand.NewSource(seed + 5))
	vb := &vecBuilder{prog: Program{Name: "StreamCluster"}}
	for i := 0; i < n; i++ {
		p := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(rng.Float64() * 50) })
		c := qv(func(l int) fixedpoint.Q { return fixedpoint.FromFloat(25 + rng.Float64()*2) })
		d := vb.qop(isa.SUB, p, c)
		d2 := vb.qop(isa.MUL, d, d)
		vb.qop(isa.ADD, d2, d)
	}
	return vb.prog
}

// raytraceG: packetised ray-sphere discriminants — adjacent rays per lane.
func raytraceG(n int, seed int64) Program {
	rng := rand.New(rand.NewSource(seed + 6))
	vb := &vecBuilder{prog: Program{Name: "Raytrace"}}
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
	return vb.prog
}

// swaptions: discounted cash-flow accumulation per lane.
func swaptions(n int, seed int64) Program {
	rng := rand.New(rand.NewSource(seed + 7))
	vb := &vecBuilder{prog: Program{Name: "Swaptions"}}
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
	return vb.prog
}

// x264: sum-of-absolute-differences motion estimation per lane.
func x264(n int, seed int64) Program {
	rng := rand.New(rand.NewSource(seed + 8))
	vb := &vecBuilder{prog: Program{Name: "X264"}}
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
	return vb.prog
}

func allLanes(v uint32) vec {
	var out vec
	for l := range out {
		out[l] = v
	}
	return out
}

// LaneOutputs executes the program and returns each lane's result stream.
func LaneOutputs(p Program) [LaneCount][]uint32 {
	var out [LaneCount][]uint32
	for l := 0; l < LaneCount; l++ {
		out[l] = make([]uint32, 0, len(p.Insts))
	}
	for _, vi := range p.Insts {
		for l := 0; l < LaneCount; l++ {
			var r uint32
			switch vi.Op.Class() {
			case isa.ClassSimple:
				r = isa.ALUResult(vi.Op, vi.A[l], vi.B[l])
			case isa.ClassComplex:
				r = uint32(uint64(vi.A[l]) * uint64(vi.B[l]))
			default:
				r = vi.A[l]
			}
			out[l] = append(out[l], r)
		}
	}
	return out
}

// HammingHistograms returns the Fig 5.10 artefact: each lane's histogram of
// consecutive-output Hamming distances.
func HammingHistograms(p Program) [LaneCount]*stats.Histogram {
	outs := LaneOutputs(p)
	var hs [LaneCount]*stats.Histogram
	for l := range outs {
		hs[l] = stats.HammingHistogram(outs[l])
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
// One buffer holds each lane's scalar instructions in turn: Profile keeps
// no reference to the window it is given.
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
