package workload

import (
	"math/bits"
	"sync"
	"testing"

	"synts/internal/fixedpoint"
	"synts/internal/isa"
)

func TestBarrierAllArrive(t *testing.T) {
	const n = 8
	b := NewBarrier(n)
	var mu sync.Mutex
	phase := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for p := 0; p < 50; p++ {
				mu.Lock()
				phase[id] = p
				// No thread may be more than one phase ahead.
				for j := range phase {
					if phase[j] < p-1 || phase[j] > p+1 {
						t.Errorf("thread %d at phase %d while thread %d at %d", j, phase[j], id, p)
					}
				}
				mu.Unlock()
				b.Wait()
			}
		}(i)
	}
	wg.Wait()
}

func TestTCEmission(t *testing.T) {
	streams := Run(1, 1, same(func(tc *TC) {
		if got := tc.Add(3, 4); got != 7 {
			t.Errorf("Add = %d", got)
		}
		if got := tc.Sub(10, 4); got != 6 {
			t.Errorf("Sub = %d", got)
		}
		if got := tc.Mul(6, 7); got != 42 {
			t.Errorf("Mul = %d", got)
		}
		if got := tc.Mac(6, 7, 8); got != 50 {
			t.Errorf("Mac = %d", got)
		}
		if got := tc.AddI(5, 0xFFFF); got != 4 { // -1 sign-extended
			t.Errorf("AddI = %d", got)
		}
		if got := tc.Slt(^uint32(0), 1); got != 1 { // -1 < 1 signed
			t.Errorf("Slt = %d", got)
		}
		tc.Load(0x1000)
		tc.Store(0x2000)
	}))
	iv := streams[0].Intervals
	if len(iv) != 1 {
		t.Fatalf("intervals = %d, want 1", len(iv))
	}
	ops := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.MAC, isa.ADDI, isa.SLT, isa.LD, isa.ST}
	if len(iv[0]) != len(ops) {
		t.Fatalf("emitted %d instructions, want %d", len(iv[0]), len(ops))
	}
	for i, want := range ops {
		if iv[0][i].Op != want {
			t.Errorf("inst %d op = %v, want %v", i, iv[0][i].Op, want)
		}
	}
	if iv[0][0].A != 3 || iv[0][0].B != 4 || iv[0][0].Result() != 7 {
		t.Errorf("ADD operands not recorded: %+v", iv[0][0])
	}
	if iv[0][6].Addr() != 0x1000 {
		t.Errorf("LD addr = %#x", iv[0][6].Addr())
	}
}

func TestTCLoopEmitsControl(t *testing.T) {
	streams := Run(1, 1, same(func(tc *TC) {
		tc.Loop(3, func(i int) { tc.Nop() })
	}))
	var nops, addis, bnes int
	for _, in := range streams[0].Intervals[0] {
		switch in.Op {
		case isa.NOP:
			nops++
		case isa.ADDI:
			addis++
		case isa.BNE:
			bnes++
		}
	}
	if nops != 3 || addis != 3 || bnes != 3 {
		t.Errorf("loop emission: %d NOP, %d ADDI, %d BNE; want 3 each", nops, addis, bnes)
	}
}

func TestQMulEmitsMulAndRealign(t *testing.T) {
	streams := Run(1, 1, same(func(tc *TC) {
		got := tc.QMul(fixedpoint.FromFloat(2.5), fixedpoint.FromFloat(4))
		if got != fixedpoint.FromFloat(10) {
			t.Errorf("QMul = %v", got.Float())
		}
	}))
	iv := streams[0].Intervals[0]
	if len(iv) != 2 || iv[0].Op != isa.MUL || iv[1].Op != isa.SHR {
		t.Fatalf("QMul emission = %v", iv)
	}
}

func TestBarrierSplitsIntervals(t *testing.T) {
	streams := Run(2, 1, same(func(tc *TC) {
		tc.Add(1, 1)
		tc.Barrier()
		tc.Add(2, 2)
		tc.Add(3, 3)
	}))
	for _, s := range streams {
		if len(s.Intervals) != 2 {
			t.Fatalf("thread %d intervals = %d, want 2", s.Thread, len(s.Intervals))
		}
		if len(s.Intervals[0]) != 1 || len(s.Intervals[1]) != 2 {
			t.Errorf("thread %d interval sizes = %d,%d, want 1,2",
				s.Thread, len(s.Intervals[0]), len(s.Intervals[1]))
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := FullSuite()
	if len(All()) != len(want) {
		t.Fatalf("registry has %d kernels, want %d", len(All()), len(want))
	}
	for _, name := range want {
		k, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if k.Make == nil {
			t.Errorf("%s: nil Make", name)
		}
	}
	for _, name := range PaperSuite() {
		k, err := ByName(name)
		if err != nil {
			t.Fatalf("paper suite %q: %v", name, err)
		}
		if !k.Heterogeneous {
			t.Errorf("%s: paper suite kernels must be heterogeneous", name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) must fail")
	}
}

func TestAllKernelsRun(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			streams := RunKernel(k, 4, 1, 42)
			if len(streams) != 4 {
				t.Fatalf("streams = %d", len(streams))
			}
			nIv := len(streams[0].Intervals)
			if nIv < 2 {
				t.Fatalf("only %d intervals; kernels must hit at least one barrier", nIv)
			}
			total := 0
			for _, s := range streams {
				if len(s.Intervals) != nIv {
					t.Fatalf("interval count mismatch: thread %d has %d, thread 0 has %d",
						s.Thread, len(s.Intervals), nIv)
				}
				total += s.TotalInstructions()
			}
			if total < 1000 {
				t.Errorf("suspiciously small trace: %d instructions", total)
			}
			// Every instruction must carry a valid op, and every interval
			// is sealed at its exact size.
			for _, s := range streams {
				for ii, iv := range s.Intervals {
					if cap(iv) != len(iv) {
						t.Fatalf("thread %d interval %d: cap %d, len %d", s.Thread, ii, cap(iv), len(iv))
					}
					for _, in := range iv {
						if int(in.Op) >= isa.NumOps {
							t.Fatalf("invalid op %d", in.Op)
						}
					}
				}
			}
		})
	}
}

func TestKernelDeterminism(t *testing.T) {
	for _, name := range []string{"radix", "fmm", "ocean"} {
		k, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := RunKernel(k, 4, 1, 7)
		b := RunKernel(k, 4, 1, 7)
		for ti := range a {
			if a[ti].TotalInstructions() != b[ti].TotalInstructions() {
				t.Fatalf("%s: thread %d trace length differs between runs", name, ti)
			}
			for ii, iv := range a[ti].Intervals {
				for j, in := range iv {
					if in != b[ti].Intervals[ii][j] {
						t.Fatalf("%s: thread %d interval %d inst %d differs: %+v vs %+v",
							name, ti, ii, j, in, b[ti].Intervals[ii][j])
					}
				}
			}
		}
	}
}

// meanOperandBits measures the average significant-bit width of SimpleALU
// operands in a stream: the raw material of delay heterogeneity.
func meanOperandBits(s *Stream) float64 {
	var sum, n float64
	for _, iv := range s.Intervals {
		for _, in := range iv {
			if in.Op.Class() != isa.ClassSimple {
				continue
			}
			sum += float64(bits.Len32(in.A) + bits.Len32(in.B))
			n += 2
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func TestRadixOperandHeterogeneity(t *testing.T) {
	k, _ := ByName("radix")
	streams := RunKernel(k, 4, 2, 42)
	w0 := meanOperandBits(streams[0])
	w3 := meanOperandBits(streams[3])
	if w0 <= w3 {
		t.Errorf("radix thread 0 mean operand width %.2f must exceed thread 3's %.2f "+
			"(range-partitioned keys)", w0, w3)
	}
}

func TestOceanOperandHomogeneity(t *testing.T) {
	k, _ := ByName("ocean")
	streams := RunKernel(k, 4, 2, 42)
	w0 := meanOperandBits(streams[0])
	w3 := meanOperandBits(streams[3])
	ratio := w0 / w3
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("ocean operand widths should be homogeneous: thread0 %.2f vs thread3 %.2f", w0, w3)
	}
}

func TestRunPanicsOnZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run(0) did not panic")
		}
	}()
	Run(0, 1, same(func(tc *TC) {}))
}
