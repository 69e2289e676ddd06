package gpgpu

import (
	"reflect"
	"runtime"
	"testing"

	"synts/internal/isa"
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
			if !vi.Op.Valid() {
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
		if want := c.gen(50, 3); !reflect.DeepEqual(got, want) || got.Name != c.name {
			t.Errorf("ProgramByName(%q) differs from its generator's program %q", c.name, want.Name)
		}
	}
	if _, err := ProgramByName("nope", 10, 1); err == nil {
		t.Fatal("unknown program must error")
	}
	// Only the named program is built.
	one := testing.AllocsPerRun(5, func() { matrixMult(200, 1) })
	byName := testing.AllocsPerRun(5, func() { ProgramByName("MatrixMult", 200, 1) })
	if byName > one+4 {
		t.Errorf("ProgramByName allocates %v times, building MatrixMult alone %v", byName, one)
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

func TestLaneOutputsLockStep(t *testing.T) {
	p, err := ProgramByName("MatrixMult", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	outs := LaneOutputs(p)
	for l := 0; l < LaneCount; l++ {
		if len(outs[l]) != len(p.Insts) {
			t.Fatalf("lane %d has %d outputs, want %d", l, len(outs[l]), len(p.Insts))
		}
	}
	// Spot-check lane semantics against the ISA reference.
	vi := p.Insts[0]
	if vi.Op.Class() == isa.ClassSimple {
		want := isa.ALUResult(vi.Op, vi.A[3], vi.B[3])
		if outs[3][0] != want {
			t.Fatalf("lane 3 inst 0 = %#x, want %#x", outs[3][0], want)
		}
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
