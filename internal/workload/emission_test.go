package workload

import (
	"testing"

	"synts/internal/fixedpoint"
	"synts/internal/isa"
)

// collect runs a single-thread body and returns the emitted ops.
func collect(body func(tc *TC)) []isa.Inst {
	streams := Run(1, 1, body)
	var out []isa.Inst
	for _, iv := range streams[0].Intervals {
		out = append(out, iv...)
	}
	return out
}

func TestQDivEmitsSoftwareDivide(t *testing.T) {
	iv := collect(func(tc *TC) {
		got := tc.QDiv(fixedpoint.FromInt(10), fixedpoint.FromInt(4))
		if got != fixedpoint.FromFloat(2.5) {
			t.Errorf("QDiv = %v", got.Float())
		}
	})
	var muls int
	for _, in := range iv {
		if in.Op == isa.MUL {
			muls++
		}
	}
	if muls < 3 {
		t.Errorf("Newton reciprocal divide should emit several MULs, got %d", muls)
	}
}

func TestQSqrtEmitsIterationsAndIsExact(t *testing.T) {
	iv := collect(func(tc *TC) {
		got := tc.QSqrt(fixedpoint.FromInt(9))
		if got != fixedpoint.Sqrt(fixedpoint.FromInt(9)) {
			t.Errorf("QSqrt = %v", got.Float())
		}
	})
	if len(iv) < 6 {
		t.Errorf("QSqrt should emit the Newton iteration stream, got %d instructions", len(iv))
	}
}

func TestQMacMatchesQSubQMul(t *testing.T) {
	a := fixedpoint.FromFloat(1.25)
	b := fixedpoint.FromFloat(-2.5)
	acc := fixedpoint.FromFloat(10)
	var viaMac, viaMul fixedpoint.Q
	collect(func(tc *TC) {
		viaMac = tc.QMac(acc, a, b)
		viaMul = tc.QAdd(acc, tc.QMul(a, b))
	})
	if viaMac != viaMul {
		t.Fatalf("QMac %v != QAdd(QMul) %v", viaMac.Float(), viaMul.Float())
	}
}

func TestRegisterFieldsRotate(t *testing.T) {
	iv := collect(func(tc *TC) {
		for i := 0; i < 40; i++ {
			tc.Add(1, 2)
		}
	})
	seen := map[uint8]bool{}
	for _, in := range iv {
		if in.Rd == 0 || in.Rd > 31 {
			t.Fatalf("rd %d out of [1,31]", in.Rd)
		}
		seen[in.Rd] = true
	}
	if len(seen) < 20 {
		t.Errorf("register allocation too static: %d distinct rd over 40 ops", len(seen))
	}
}

func TestBranchRecordsOutcome(t *testing.T) {
	iv := collect(func(tc *TC) {
		if !tc.BranchEq(3, 3) {
			t.Error("BranchEq(3,3) must be taken")
		}
		if tc.BranchNe(3, 3) {
			t.Error("BranchNe(3,3) must not be taken")
		}
	})
	if iv[0].Result() != 1 {
		t.Error("taken branch must record Result=1")
	}
	if iv[1].Result() != 0 {
		t.Error("not-taken branch must record Result=0")
	}
	if iv[0].Imm() != branchImm {
		t.Errorf("branch displacement = %#x, want %#x", iv[0].Imm(), branchImm)
	}
}

// The immediate, the effective address and the result an instruction
// reports are derived from its stored fields; each TC operation stores
// them so they read back as the operation's own values.
func TestEmittedDerivedFields(t *testing.T) {
	iv := collect(func(tc *TC) {
		tc.AddI(5, 0xFFF8) // 5 + (-8)
		tc.Load(0x1234)
		tc.Store(0x20FC)
		tc.Mac(0x10000, 0x10000, 9) // product overflows the low word
		tc.BranchEq(7, 7)
		tc.BranchEq(7, 8)
		tc.BranchNe(7, 8)
		tc.BranchNe(7, 7)
	})
	cases := []struct {
		op        isa.Op
		imm       uint16
		addr, res uint32
		a, b, c   uint32
	}{
		{isa.ADDI, 0xFFF8, 0, 0xFFFFFFFD, 5, 0xFFFFFFF8, 0xFFF8},
		{isa.LD, 0x34, 0x1234, 0, 0x1234, 0, 0x34},
		{isa.ST, 0x7C, 0x20FC, 0, 0x20FC, 0, 0x7C},
		{isa.MAC, 0, 0, 9, 0x10000, 0x10000, 9},
		{isa.BEQ, branchImm, 0, 1, 7, 7, branchImm},
		{isa.BEQ, branchImm, 0, 0, 7, 8, branchImm},
		{isa.BNE, branchImm, 0, 1, 7, 8, branchImm},
		{isa.BNE, branchImm, 0, 0, 7, 7, branchImm},
	}
	if len(iv) != len(cases) {
		t.Fatalf("emitted %d instructions, want %d", len(iv), len(cases))
	}
	for i, c := range cases {
		in := iv[i]
		if in.Op != c.op || in.A != c.a || in.B != c.b || in.C != c.c {
			t.Errorf("inst %d = %+v, want %v a=%#x b=%#x c=%#x", i, in, c.op, c.a, c.b, c.c)
		}
		if in.Imm() != c.imm || in.Addr() != c.addr || in.Result() != c.res {
			t.Errorf("inst %d (%v): imm %#x addr %#x result %#x, want %#x %#x %#x",
				i, in.Op, in.Imm(), in.Addr(), in.Result(), c.imm, c.addr, c.res)
		}
	}
}

func TestRunTrimsTrailingEmptyInterval(t *testing.T) {
	streams := Run(2, 1, func(tc *TC) {
		tc.Add(1, 1)
		tc.Barrier() // body ends exactly at a barrier
	})
	for _, s := range streams {
		if len(s.Intervals) != 1 {
			t.Fatalf("thread %d has %d intervals, want 1 (trailing empty trimmed)", s.Thread, len(s.Intervals))
		}
	}
	// But an uneven trailing interval must be kept.
	streams = Run(2, 1, func(tc *TC) {
		tc.Add(1, 1)
		tc.Barrier()
		if tc.ID() == 0 {
			tc.Add(2, 2)
		}
	})
	for _, s := range streams {
		if len(s.Intervals) != 2 {
			t.Fatalf("thread %d has %d intervals, want 2 (non-empty tail kept)", s.Thread, len(s.Intervals))
		}
	}
}

// Intervals whose lengths sit on and around the chunk boundaries come back
// whole and in order on every thread, from chunks reused across intervals
// of different lengths, and an empty interval is nil. Each instruction's
// operands encode its thread, interval and index.
func TestIntervalsCrossChunkBoundaries(t *testing.T) {
	lens := []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 5}
	const threads = 3
	length := func(thread, k int) int { return lens[(k+thread)%len(lens)] }
	streams := Run(threads, 1, func(tc *TC) {
		for k := range lens {
			if k > 0 {
				tc.Barrier()
			}
			for i := 0; i < length(tc.ID(), k); i++ {
				tc.Add(uint32(tc.ID()<<8|k), uint32(i))
			}
		}
	})
	for _, s := range streams {
		if len(s.Intervals) != len(lens) {
			t.Fatalf("thread %d has %d intervals, want %d", s.Thread, len(s.Intervals), len(lens))
		}
		for k, iv := range s.Intervals {
			n := length(s.Thread, k)
			if len(iv) != n || cap(iv) != n {
				t.Fatalf("thread %d interval %d: len %d cap %d, want %d", s.Thread, k, len(iv), cap(iv), n)
			}
			if n == 0 && iv != nil {
				t.Errorf("thread %d interval %d: empty interval is not nil", s.Thread, k)
			}
			for i, in := range iv {
				if in.A != uint32(s.Thread<<8|k) || in.B != uint32(i) {
					t.Fatalf("thread %d interval %d instruction %d carries (%#x, %d)", s.Thread, k, i, in.A, in.B)
				}
			}
		}
	}
}

func TestRngIsPerThreadDeterministic(t *testing.T) {
	vals := make([][]int, 2)
	for trial := 0; trial < 2; trial++ {
		streams := Run(2, 7, func(tc *TC) {
			tc.AddI(uint32(tc.Rng().Intn(1000)), 1)
		})
		for _, s := range streams {
			vals[trial] = append(vals[trial], int(s.Intervals[0][0].A))
		}
	}
	for i := range vals[0] {
		if vals[0][i] != vals[1][i] {
			t.Fatal("per-thread rng must be deterministic across runs")
		}
	}
	if vals[0][0] == vals[0][1] {
		t.Error("threads should draw different streams")
	}
}
