package gpgpu

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"synts/internal/isa"
	"synts/internal/stats"
	"synts/internal/trace"
)

// programs generates every catalog program through ProgramByName.
func programs(t *testing.T, n int, seed int64) []Program {
	t.Helper()
	ps := make([]Program, len(catalog))
	for i, c := range catalog {
		p, err := ProgramByName(c.name, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	return ps
}

func TestProgramsGenerate(t *testing.T) {
	ps := programs(t, 200, 1)
	if len(ps) < 6 {
		t.Fatalf("only %d programs", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if len(p.Insts) == 0 {
			t.Errorf("%s: empty program", p.Name)
		}
		if seen[p.Name] {
			t.Errorf("duplicate program name %s", p.Name)
		}
		seen[p.Name] = true
		for _, vi := range p.Insts {
			if int(vi.Op) >= isa.NumOps {
				t.Fatalf("%s: invalid op", p.Name)
			}
		}
	}
}

func TestProgramByName(t *testing.T) {
	for _, c := range catalog {
		got, err := ProgramByName(c.name, 50, 3)
		if err != nil {
			t.Fatal(err)
		}
		vb := &vecBuilder{insts: make([]VInst, len(got.Insts)+1)}
		c.gen(vb, 50, 3)
		if vb.n != len(got.Insts) || !reflect.DeepEqual(got.Insts, vb.insts[:vb.n]) || got.Name != c.name {
			t.Errorf("ProgramByName(%q) differs from its generator's program", c.name)
		}
	}
	if _, err := ProgramByName("nope", 10, 1); err == nil {
		t.Fatal("unknown program must error")
	}
}

// Each Fig 5.10 program at the batch size is generated into one exactly
// sized slice: ProgramByName allocates at most 1.1 times the bytes of the
// instructions it keeps, so the slice is never regrown. The test is not
// parallel, so the TotalAlloc delta is this call's.
func TestProgramByNameAllocationBound(t *testing.T) {
	for _, name := range []string{"BlackScholes", "MatrixMult", "BinarySearch", "FFT", "EigenValue", "StreamCluster"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := ProgramByName(name, 16000/6, 2016)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Insts) != cap(p.Insts) {
			t.Errorf("%s: len %d, cap %d", name, len(p.Insts), cap(p.Insts))
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(uintptr(len(p.Insts))*unsafe.Sizeof(VInst{}))
		t.Logf("%s: %d vector instructions, %.3fx their bytes allocated", name, len(p.Insts), ratio)
		if ratio > 1.1 {
			t.Errorf("%s: ProgramByName allocated %.2fx the bytes of its instructions, want at most 1.1x", name, ratio)
		}
	}
}

func TestProgramsDeterministic(t *testing.T) {
	a := programs(t, 100, 7)
	b := programs(t, 100, 7)
	for i := range a {
		if len(a[i].Insts) != len(b[i].Insts) {
			t.Fatalf("%s: nondeterministic length", a[i].Name)
		}
		for j := range a[i].Insts {
			if a[i].Insts[j] != b[i].Insts[j] {
				t.Fatalf("%s inst %d differs", a[i].Name, j)
			}
		}
	}
}

// Each lane's histogram is that of the outputs the lane computes from its
// own operands, in program order: the SimpleALU result (isa.ALUResult) or
// the low word of a MUL's product.
func TestHammingHistogramsLaneSemantics(t *testing.T) {
	for _, p := range programs(t, 50, 1) {
		hs := HammingHistograms(p)
		for l := 0; l < LaneCount; l++ {
			outs := make([]uint32, len(p.Insts))
			for i, vi := range p.Insts {
				switch {
				case vi.Op == isa.MUL:
					outs[i] = vi.A[l] * vi.B[l]
				case vi.Op.Class() == isa.ClassSimple:
					outs[i] = isa.ALUResult(vi.Op, vi.A[l], vi.B[l])
				default:
					t.Fatalf("%s: unexpected op %v", p.Name, vi.Op)
				}
			}
			if want := stats.HammingHistogram(outs); !reflect.DeepEqual(hs[l], want) {
				t.Fatalf("%s lane %d: histogram %v, want %v", p.Name, l, hs[l].Counts, want.Counts)
			}
		}
	}
}

// HammingHistograms keeps no per-lane copy of the outputs: a call
// allocates less than one lane's output stream would take.
func TestHammingHistogramsAllocationBound(t *testing.T) {
	p, err := ProgramByName("BlackScholes", 16000/6, 2016)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		HammingHistograms(p)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if lane := uint64(len(p.Insts)) * 4; perCall >= lane {
		t.Errorf("HammingHistograms allocates %d bytes per call, one lane's outputs take %d", perCall, lane)
	}
}

// The §5.5 result: all lanes' Hamming-distance histograms are near
// identical, and per-lane error probabilities are tightly clustered —
// homogeneity, so per-core TS suffices on this architecture.
func TestLanesAreHomogeneous(t *testing.T) {
	for _, p := range programs(t, 400, 42) {
		h := Analyze(p, HammingHistograms(p))
		if h.MaxPairDistance > 0.35 {
			t.Errorf("%s: lane Hamming histograms diverge: L1 distance %.3f", p.Name, h.MaxPairDistance)
		}
		if h.ErrSpread > 0.06 {
			t.Errorf("%s: per-lane error probabilities spread %.3f, expected homogeneous", p.Name, h.ErrSpread)
		}
	}
}

func TestHammingHistogramsShape(t *testing.T) {
	p, _ := ProgramByName("BlackScholes", 300, 1)
	hs := HammingHistograms(p)
	for l, h := range hs {
		if h.Total != len(p.Insts)-1 {
			t.Fatalf("lane %d histogram total = %d", l, h.Total)
		}
	}
}

func TestLaneErrBounds(t *testing.T) {
	p, _ := ProgramByName("FFT", 200, 1)
	errs := LaneErr(p, 0.64)
	for l, e := range errs {
		if e < 0 || e > 1 {
			t.Fatalf("lane %d err = %v", l, e)
		}
	}
	one := LaneErr(p, 1.0)
	for l, e := range one {
		if e != 0 {
			t.Fatalf("lane %d err at r=1 must be 0, got %v", l, e)
		}
	}
}

// One lane buffer serves all 16 lanes: after warm-up, LaneErr on
// BlackScholes at the batch size allocates at most 200 bytes per vector
// instruction, where a buffer per lane took about 558. Lanes take the
// process-wide trace slots in turn, so the warm-up makes enough calls to
// leave every slot holding its analyzer and numbering tables.
func TestLaneErrAllocationBound(t *testing.T) {
	p, err := ProgramByName("BlackScholes", 16000/6, 2016)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < (runtime.GOMAXPROCS(0)+LaneCount-1)/LaneCount; i++ {
		LaneErr(p, 0.64)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	LaneErr(p, 0.64)
	runtime.ReadMemStats(&after)
	perInst := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(p.Insts))
	t.Logf("%d vector instructions, %.1f bytes allocated each", len(p.Insts), perInst)
	if perInst > 200 {
		t.Errorf("LaneErr allocates %.1f bytes per vector instruction, want at most 200", perInst)
	}
}

// LaneErr rides on a StageCircuit trace, so the process-wide engine selection
// must not change its result in any lane.
func TestLaneErrEngineIndependent(t *testing.T) {
	p, _ := ProgramByName("FFT", 150, 3)
	defer trace.SetEngine(trace.EngineEvent)
	trace.SetEngine(trace.EngineLevelized)
	want := LaneErr(p, 0.64)
	trace.SetEngine(trace.EngineEvent)
	got := LaneErr(p, 0.64)
	if want != got {
		t.Fatalf("lane error probabilities differ between engines:\nlevelized %v\nevent     %v", want, got)
	}
}
