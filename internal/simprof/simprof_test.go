package simprof

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

func testEntriesReset(t *testing.T) {
	t.Helper()
	Enable()
	t.Cleanup(Disable)
}

func TestSnapshotAccumulatesAndSorts(t *testing.T) {
	testEntriesReset(t)
	k := Key{Kernel: "radix", Core: 1, Interval: 2, Phase: PhaseReplay, Op: "ADD", Stage: "SimpleALU"}
	Record(k, Values{Cycles: 3, Errors: 1, Energy: 3, Instrs: 3})
	Record(k, Values{Cycles: 2, Errors: 0, Energy: 2, Instrs: 2})
	Record(Key{Kernel: "fmm", Phase: PhaseIssue, Op: "LD", Stage: "Decode"}, Values{Cycles: 1, Instrs: 1})

	got := Snapshot()
	if len(got) != 2 {
		t.Fatalf("got %d entries, want 2", len(got))
	}
	if got[0].Kernel != "fmm" || got[1].Kernel != "radix" {
		t.Errorf("entries not in canonical kernel order: %q, %q", got[0].Kernel, got[1].Kernel)
	}
	r := got[1]
	if r.Cycles != 5 || r.Errors != 1 || r.Energy != 5 || r.Instrs != 5 {
		t.Errorf("accumulated values = %+v, want Cycles 5 Errors 1 Energy 5 Instrs 5", r.Values)
	}
}

func TestRecordDisabledIsNoOp(t *testing.T) {
	Enable() // clears the store
	Disable()
	Record(Key{Kernel: "radix", Op: "ADD"}, Values{Cycles: 1})
	if got := Snapshot(); len(got) != 0 {
		t.Fatalf("disabled Record stored %d entries", len(got))
	}
}

// The disabled record path must be allocation-free — the profiler rides
// inside the replay and delay-trace hot loops.
func TestRecordDisabledZeroAllocs(t *testing.T) {
	Disable()
	k := Key{Kernel: "radix", Core: 3, Interval: 1, Phase: PhaseReplay, Op: "MUL", Stage: "ComplexALU"}
	v := Values{Cycles: 6, Errors: 1, Energy: 6, Instrs: 1}
	if allocs := testing.AllocsPerRun(1000, func() { Record(k, v) }); allocs != 0 {
		t.Fatalf("disabled Record allocates %v allocs/op, want 0", allocs)
	}
}

// Snapshot sums (and therefore folded/pprof bytes) must not depend on
// the order contributions arrived in — this is what makes -j 1 and -j 4
// artifacts byte-identical even though goroutine interleaving differs.
func TestSnapshotOrderIndependent(t *testing.T) {
	k := Key{Kernel: "ocean", Core: 0, Interval: 0, Phase: PhaseReplay, Op: "MAC", Stage: "ComplexALU"}
	contribs := make([]Values, 64)
	rng := rand.New(rand.NewSource(7))
	for i := range contribs {
		contribs[i] = Values{
			Cycles: float64(rng.Intn(1000)) + 0.1*float64(rng.Intn(10)),
			Errors: int64(rng.Intn(5)),
			Energy: rng.Float64() * 100,
			Instrs: int64(rng.Intn(100)),
		}
	}

	run := func(perm []int) ([]Entry, []byte) {
		Enable()
		defer Disable()
		for _, i := range perm {
			Record(k, contribs[i])
		}
		var folded bytes.Buffer
		if err := WriteFolded(&folded); err != nil {
			t.Fatal(err)
		}
		return Snapshot(), folded.Bytes()
	}

	base := rng.Perm(len(contribs))
	wantSnap, wantFolded := run(base)
	for trial := 0; trial < 5; trial++ {
		snap, folded := run(rng.Perm(len(contribs)))
		if len(snap) != 1 || len(wantSnap) != 1 {
			t.Fatalf("trial %d: snapshot sizes %d vs %d", trial, len(snap), len(wantSnap))
		}
		if snap[0] != wantSnap[0] {
			t.Fatalf("trial %d: snapshot differs under permutation:\n got %+v\nwant %+v", trial, snap[0], wantSnap[0])
		}
		if !bytes.Equal(folded, wantFolded) {
			t.Fatalf("trial %d: folded bytes differ under permutation", trial)
		}
	}
}

func TestRecordConcurrent(t *testing.T) {
	testEntriesReset(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				Record(Key{Kernel: "radix", Core: g % 2, Phase: PhaseIssue, Op: "ADD", Stage: "Decode"},
					Values{Cycles: 1, Instrs: 1})
			}
		}(g)
	}
	wg.Wait()
	var total float64
	for _, e := range Snapshot() {
		total += e.Cycles
	}
	if total != 800 {
		t.Fatalf("concurrent records summed to %v cycles, want 800", total)
	}
}

func TestWriteFoldedFormat(t *testing.T) {
	testEntriesReset(t)
	Record(Key{Kernel: "radix", Core: 2, Interval: 1, Phase: PhaseReplay, Op: "ADD", Stage: "SimpleALU"},
		Values{Cycles: 41.6, Errors: 2, Instrs: 10})
	Record(Key{Kernel: "radix", Core: 2, Interval: 1, Phase: PhaseJoint, Op: "ADD", Stage: "SimpleALU"},
		Values{Errors: 2, Instrs: 10}) // zero cycles: dropped from folded output

	var buf bytes.Buffer
	if err := WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	want := "radix;c2.iv1;replay;ADD;SimpleALU 42\n"
	if buf.String() != want {
		t.Errorf("folded output:\n got %q\nwant %q", buf.String(), want)
	}
}

func BenchmarkRecordDisabled(b *testing.B) {
	Disable()
	k := Key{Kernel: "radix", Core: 1, Interval: 0, Phase: PhaseReplay, Op: "ADD", Stage: "SimpleALU"}
	v := Values{Cycles: 6, Errors: 1, Energy: 6, Instrs: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Record(k, v)
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	Enable()
	defer Disable()
	k := Key{Kernel: "radix", Core: 1, Interval: 0, Phase: PhaseReplay, Op: "ADD", Stage: "SimpleALU"}
	v := Values{Cycles: 6, Errors: 1, Energy: 6, Instrs: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Record(k, v)
	}
}
