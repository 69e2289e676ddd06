package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"synts/internal/ckpt"
	"synts/internal/exp"
	"synts/internal/faults"
	"synts/internal/simprof"
)

// writeSimprofArtifacts must emit a parseable pprof profile and a folded
// sibling with the 5-deep frame layout kernel;cN.ivM;phase;op;stage.
func TestWriteSimprofArtifacts(t *testing.T) {
	simprof.Enable()
	defer simprof.Disable()
	simprof.Record(
		simprof.Key{Kernel: "b", Core: 1, Interval: 2, Phase: simprof.PhaseReplay, Op: "ADD", Stage: "SimpleALU"},
		simprof.Values{Cycles: 7, Errors: 2, Energy: 7, Instrs: 5})

	path := filepath.Join(t.TempDir(), "simprof.pb.gz")
	if err := writeSimprofArtifacts(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := simprof.Parse(raw)
	if err != nil {
		t.Fatalf("emitted profile does not parse: %v", err)
	}
	if len(prof.Samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(prof.Samples))
	}
	folded, err := os.ReadFile(path + ".folded")
	if err != nil {
		t.Fatal(err)
	}
	want := "b;c1.iv2;replay;ADD;SimpleALU 7\n"
	if string(folded) != want {
		t.Errorf("folded = %q, want %q", folded, want)
	}
}

// simprofRun executes runAllCtx over the named experiments and returns the
// profiler artifacts (when recording) plus the stdout stream.
func simprofRun(t *testing.T, names []string, jobs int, profile bool) (pb, folded, stdout []byte) {
	t.Helper()
	opts := exp.DefaultOptions()
	opts.Size = 1
	opts.MaxIntervals = 1
	simprof.Disable()
	if profile {
		simprof.Enable()
		defer simprof.Disable()
	}
	var out bytes.Buffer
	if err := runAllCtx(context.Background(), names, opts, jobs, false, &out, io.Discard, nil, false); err != nil {
		t.Fatalf("-j %d: %v", jobs, err)
	}
	if profile {
		var pbBuf, foldBuf bytes.Buffer
		if err := simprof.WriteProfile(&pbBuf); err != nil {
			t.Fatal(err)
		}
		if err := simprof.WriteFolded(&foldBuf); err != nil {
			t.Fatal(err)
		}
		pb, folded = pbBuf.Bytes(), foldBuf.Bytes()
	}
	return pb, folded, out.Bytes()
}

// The profiler's determinism golden: artifacts are byte-identical at
// -j 1 and -j 4, and recording does not perturb the experiments' stdout.
func TestSimprofArtifactsIdenticalAcrossJobCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full profiled experiment three times")
	}
	names := []string{"fig6.18"}

	_, _, plain := simprofRun(t, names, 1, false)
	pb1, fold1, out1 := simprofRun(t, names, 1, true)
	pb4, fold4, out4 := simprofRun(t, names, 4, true)

	if !bytes.Equal(pb1, pb4) {
		t.Error("-j 1 and -j 4 pprof profiles differ byte-for-byte")
	}
	if !bytes.Equal(fold1, fold4) {
		t.Error("-j 1 and -j 4 folded stacks differ byte-for-byte")
	}
	if !bytes.Equal(out1, out4) {
		t.Error("-j 1 and -j 4 stdout differ while profiling")
	}
	if !bytes.Equal(plain, out1) {
		t.Error("enabling the profiler perturbed experiment stdout")
	}
	if len(fold1) == 0 {
		t.Fatal("profiled run produced no folded stacks")
	}
	prof, err := simprof.Parse(pb1)
	if err != nil {
		t.Fatalf("profiled run emitted an unparseable profile: %v", err)
	}
	if len(prof.Samples) == 0 {
		t.Fatal("profiled run emitted no samples")
	}
}

// An injected checkpoint-write fault must not fail the run: the result
// still streams to stdout, the fault is reported on stderr, and the
// store is left with only the orphaned .tmp file (so resume recomputes).
func TestRunAllCtxCheckpointFaultIsolated(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment")
	}
	dir := t.TempDir()
	store, err := ckpt.Open(dir, ckpt.Key{Size: 1, Seed: 2016, Threads: 4, Intervals: 1})
	if err != nil {
		t.Fatal(err)
	}
	faults.Enable("ckpt-write-fail=1", 1)
	defer faults.Disable()

	opts := exp.DefaultOptions()
	opts.Size = 1
	opts.MaxIntervals = 1
	var out, errb bytes.Buffer
	err = runAllCtx(context.Background(), []string{"fig6.18"}, opts, 1, false, &out, &errb, store, false)
	if err != nil {
		t.Fatalf("checkpoint fault must not fail the run: %v", err)
	}
	if out.Len() == 0 {
		t.Error("run produced no stdout")
	}
	if !strings.Contains(errb.String(), "checkpoint fig6.18") {
		t.Errorf("stderr missing checkpoint warning: %q", errb.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "fig6.18.ckpt.json.tmp")); err != nil {
		t.Errorf("orphaned .tmp missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig6.18.ckpt.json")); !os.IsNotExist(err) {
		t.Errorf("checkpoint file must not exist after an injected write fault (err = %v)", err)
	}
	if _, err := store.Load("fig6.18"); err == nil {
		t.Error("Load returned a checkpoint that was never durably written")
	}
}

// heapBallast is what retainHeapBallast allocates, live until the test
// drops it.
var heapBallast []byte

//go:noinline
func retainHeapBallast() { heapBallast = make([]byte, 64<<20) }

// -memprofile reports the heap at exit, not as of the last GC: 64 MB that
// a collection saw live and the run then dropped reads as 0 in use.
func TestWriteHeapProfileIsCurrent(t *testing.T) {
	retainHeapBallast()
	runtime.GC()
	heapBallast = nil
	path := filepath.Join(t.TempDir(), "heap.pb.gz")
	if err := writeHeapProfile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := simprof.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	col := slices.IndexFunc(prof.SampleTypes, func(st simprof.ParsedValueType) bool { return st.Type == "inuse_space" })
	if col < 0 {
		t.Fatalf("no inuse_space column in %+v", prof.SampleTypes)
	}
	var samples, inuse int64
	for _, s := range prof.Samples {
		if slices.ContainsFunc(s.Stack, func(f string) bool { return strings.HasSuffix(f, ".retainHeapBallast") }) {
			samples++
			inuse += s.Values[col]
		}
	}
	if samples == 0 {
		t.Fatal("the ballast allocation is missing from the heap profile")
	}
	if inuse != 0 {
		t.Errorf("dropped ballast reads %d bytes in use, want 0", inuse)
	}
}
