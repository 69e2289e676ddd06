package trace

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"synts/internal/cpu"
	"synts/internal/isa"
	"synts/internal/obs"
	"synts/internal/simprof"
	"synts/internal/workload"
)

func TestStageCircuitsBuild(t *testing.T) {
	var crits []float64
	for _, s := range Stages() {
		sc := NewStageCircuit(s)
		if sc.Netlist == nil {
			t.Fatalf("%v: nil netlist", s)
		}
		if sc.TCrit <= 0 {
			t.Fatalf("%v: TCrit = %v", s, sc.TCrit)
		}
		crits = append(crits, sc.TCrit)
	}
	// Decode is the shallowest circuit, ComplexALU the deepest.
	if !(crits[0] < crits[1] && crits[1] < crits[2]) {
		t.Errorf("TCrit ordering: decode %v, simple %v, complex %v", crits[0], crits[1], crits[2])
	}
}

func TestStageCircuitCaching(t *testing.T) {
	a := NewStageCircuit(SimpleALU)
	b := NewStageCircuit(SimpleALU)
	if a.Netlist != b.Netlist {
		t.Error("stage circuits must share the cached netlist")
	}
	if &a.in[0] == &b.in[0] {
		t.Error("stage circuits must not share scratch state")
	}
}

func TestDrives(t *testing.T) {
	dec := NewStageCircuit(Decode)
	alu := NewStageCircuit(SimpleALU)
	cpx := NewStageCircuit(ComplexALU)
	cases := []struct {
		op                isa.Op
		dec, simple, cplx bool
	}{
		{isa.ADD, true, true, false},
		{isa.MUL, true, false, true},
		{isa.MAC, true, false, true},
		{isa.LD, true, true, false},
		{isa.BEQ, true, true, false},
		{isa.NOP, true, false, false},
		{isa.JMP, true, false, false},
	}
	for _, c := range cases {
		in := isa.Inst{Op: c.op}
		if got := dec.Drives(in); got != c.dec {
			t.Errorf("%v drives Decode = %v, want %v", c.op, got, c.dec)
		}
		if got := alu.Drives(in); got != c.simple {
			t.Errorf("%v drives SimpleALU = %v, want %v", c.op, got, c.simple)
		}
		if got := cpx.Drives(in); got != c.cplx {
			t.Errorf("%v drives ComplexALU = %v, want %v", c.op, got, c.cplx)
		}
	}
}

func TestDelayTraceBasics(t *testing.T) {
	sc := NewStageCircuit(SimpleALU)
	iv := []isa.Inst{
		{Op: isa.ADD, A: 0, B: 0},
		{Op: isa.ADD, A: 0xFFFFFFFF, B: 1}, // full carry chain
		{Op: isa.NOP},                      // holds inputs
		{Op: isa.ADD, A: 0xFFFFFFFF, B: 1}, // identical vector: no transition
	}
	d := sc.DelayTrace(iv)
	if len(d) != len(iv) {
		t.Fatalf("delay count = %d", len(d))
	}
	if d[0] != 0 {
		t.Errorf("first driving instruction primes the analyzer, delay must be 0, got %v", d[0])
	}
	if d[1] <= 0 || d[1] > sc.TCrit {
		t.Errorf("carry-chain delay %v out of (0, TCrit=%v]", d[1], sc.TCrit)
	}
	if d[2] != 0 {
		t.Errorf("NOP delay = %v, want 0", d[2])
	}
	if d[3] != 0 {
		t.Errorf("repeated vector delay = %v, want 0", d[3])
	}
}

func TestDelayTraceComplexALUOnlyMuls(t *testing.T) {
	sc := NewStageCircuit(ComplexALU)
	iv := []isa.Inst{
		{Op: isa.MUL, A: 3, B: 5},
		{Op: isa.ADD, A: 100, B: 200},
		{Op: isa.MUL, A: 0xFFFF, B: 0xFFFF},
	}
	d := sc.DelayTrace(iv)
	if d[1] != 0 {
		t.Errorf("ADD must not disturb ComplexALU, delay %v", d[1])
	}
	if d[2] <= 0 {
		t.Errorf("second MUL with new operands must have positive delay, got %v", d[2])
	}
}

func randomInsts(rng *rand.Rand, n int, wide bool) []isa.Inst {
	iv := make([]isa.Inst, n)
	for i := range iv {
		mask := uint32(0xFF)
		if wide {
			mask = 0xFFFFFFFF
		}
		iv[i] = isa.Inst{Op: isa.ADD, A: rng.Uint32() & mask, B: rng.Uint32() & mask}
	}
	return iv
}

func profileOf(t *testing.T, iv []isa.Inst, stage Stage) *Profile {
	t.Helper()
	sc := NewStageCircuit(stage)
	p := NewProfile(sc.TCrit, sc.DelayTrace(iv))
	p.CPIBase = 1
	return p
}

func TestErrMonotoneAndZeroAtOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := profileOf(t, randomInsts(rng, 400, true), SimpleALU)
	if got := p.Err(1); got != 0 {
		t.Fatalf("Err(1) = %v, want 0", got)
	}
	prev := 0.0
	for r := 1.0; r >= 0.3; r -= 0.05 {
		e := p.Err(r)
		if e < prev-1e-12 {
			t.Fatalf("Err not non-increasing in r: Err(%v)=%v after %v", r, e, prev)
		}
		prev = e
	}
	if p.Err(0.3) == 0 {
		t.Error("wide random operands at r=0.3 should produce some errors")
	}
}

func TestWideOperandsErrMoreThanNarrow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	wide := profileOf(t, randomInsts(rng, 400, true), SimpleALU)
	narrow := profileOf(t, randomInsts(rng, 400, false), SimpleALU)
	r := 0.6
	if wide.Err(r) <= narrow.Err(r) {
		t.Errorf("wide-operand err %v must exceed narrow-operand err %v at r=%v",
			wide.Err(r), narrow.Err(r), r)
	}
}

func TestEmptyProfile(t *testing.T) {
	p := NewProfile(100, nil)
	if p.Err(0.5) != 0 {
		t.Error("empty profile must have zero error probability")
	}
	if p.MaxDelay() != 0 {
		t.Error("empty profile MaxDelay must be 0")
	}
}

// sortedOracle is the float64 form a profile kept before it was
// compacted into levels and codes: every delay sorted ascending, err(r)
// found by a binary search plus a walk over the delays equal to the
// limit. It is the reference the compact form must reproduce exactly.
type sortedOracle struct {
	tcrit  float64
	sorted []float64
}

func newSortedOracle(tcrit float64, delays []float64) sortedOracle {
	sorted := append([]float64(nil), delays...)
	sort.Float64s(sorted)
	return sortedOracle{tcrit: tcrit, sorted: sorted}
}

func (o sortedOracle) err(r float64) float64 {
	if len(o.sorted) == 0 {
		return 0
	}
	limit := r * o.tcrit
	idx := sort.SearchFloat64s(o.sorted, limit)
	for idx < len(o.sorted) && o.sorted[idx] <= limit {
		idx++
	}
	return float64(len(o.sorted)-idx) / float64(len(o.sorted))
}

func (o sortedOracle) maxDelay() float64 {
	if len(o.sorted) == 0 {
		return 0
	}
	return o.sorted[len(o.sorted)-1]
}

// oracleWindows returns delay windows that stress the compact form: empty,
// all-zero, a single delay, and random windows drawing from a few levels
// (heavy duplicates) that include 0.
func oracleWindows(rng *rand.Rand) [][]float64 {
	ws := [][]float64{nil, {}, make([]float64, 100), {37.5}}
	for trial := 0; trial < 40; trial++ {
		levels := make([]float64, 1+rng.Intn(12))
		for k := 1; k < len(levels); k++ {
			levels[k] = float64(rng.Intn(400)) * 0.25
		}
		w := make([]float64, rng.Intn(3000))
		for i := range w {
			w[i] = levels[rng.Intn(len(levels))]
		}
		ws = append(ws, w)
	}
	return ws
}

// Differential check of the compact profile against the sorted-float64
// oracle: codes decode losslessly, Err and MaxDelay match exactly at every
// limit equal to a level and just either side of it, and Cut splits each
// window exactly where a float compare would.
func TestProfileMatchesSortedOracle(t *testing.T) {
	const tcrit = 8 // a power of two, so r = limit/tcrit maps back exactly
	rng := rand.New(rand.NewSource(14))
	for wi, delays := range oracleWindows(rng) {
		p := NewProfile(tcrit, delays)
		o := newSortedOracle(tcrit, delays)
		if p.N != len(delays) || len(p.Codes) != len(delays) {
			t.Fatalf("window %d: N %d, %d codes for %d delays", wi, p.N, len(p.Codes), len(delays))
		}
		for i, c := range p.Codes {
			if p.Levels[c].Delay != delays[i] {
				t.Fatalf("window %d: code %d of instruction %d decodes to %v, want %v", wi, c, i, p.Levels[c].Delay, delays[i])
			}
		}
		if got, want := p.MaxDelay(), o.maxDelay(); got != want {
			t.Fatalf("window %d: MaxDelay %v, oracle %v", wi, got, want)
		}
		limits := []float64{-1, 0, 1e9}
		for _, l := range p.Levels {
			limits = append(limits, l.Delay, math.Nextafter(l.Delay, math.Inf(-1)), math.Nextafter(l.Delay, math.Inf(1)))
		}
		for _, limit := range limits {
			r := limit / tcrit
			if got, want := p.Err(r), o.err(r); got != want {
				t.Fatalf("window %d: Err(%v) = %v, oracle %v", wi, r, got, want)
			}
			cut := p.Cut(limit)
			for i, d := range delays {
				if (p.Codes[i] >= cut) != (d > limit) {
					t.Fatalf("window %d: delay %v vs limit %v: code %d, cut %d", wi, d, limit, p.Codes[i], cut)
				}
			}
		}
	}
}

// A profile retains its codes, opcodes and level table and nothing else:
// at most 8 bytes per instruction (4 for the code, 1 for the opcode, the
// rest for the levels), where two float64 copies of every delay took 17.
func TestBuildProfilesRetainsCompactProfiles(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 4, 2, 2016)
	n := 0
	for _, s := range streams {
		n += s.TotalInstructions()
	}
	NewStageCircuit(SimpleALU) // the netlist cache is kept once per process
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees sync.Pool victims too
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	profs, err := BuildProfiles(streams, SimpleALU, cpu.DefaultL1())
	if err != nil {
		t.Fatal(err)
	}
	perInst := (float64(heap()) - float64(before)) / float64(n)
	runtime.KeepAlive(profs)
	runtime.KeepAlive(streams) // counted in both readings, not freed between them
	t.Logf("%d instructions retained %.2f bytes each", n, perInst)
	if perInst > 8 {
		t.Errorf("profiles retain %.2f bytes per instruction, want at most 8", perInst)
	}
}

func TestBuildProfilesEndToEnd(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 4, 1, 42)
	profs, err := BuildProfiles(streams, SimpleALU, cpu.DefaultL1())
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 4 {
		t.Fatalf("threads = %d", len(profs))
	}
	nIv := len(profs[0])
	for tid, ps := range profs {
		if len(ps) != nIv {
			t.Fatalf("thread %d intervals = %d, want %d", tid, len(ps), nIv)
		}
		for _, p := range ps {
			if p.N != len(streams[tid].Intervals[p.Interval]) {
				t.Fatalf("profile N mismatch")
			}
			if p.CPIBase < 1 {
				t.Fatalf("CPI %v < 1", p.CPIBase)
			}
			if p.MaxDelay() > p.TCrit {
				t.Fatalf("delay above critical path")
			}
		}
	}
}

// The thesis' central empirical claim, end to end: the radix thread owning
// the large keys has a higher error probability under speculation than the
// thread owning the small keys.
func TestRadixHeterogeneityEndToEnd(t *testing.T) {
	k, _ := workload.ByName("radix")
	streams := workload.RunKernel(k, 4, 2, 42)
	profs, err := BuildProfiles(streams, SimpleALU, cpu.DefaultL1())
	if err != nil {
		t.Fatal(err)
	}
	// Compare cumulative error probability at an aggressive ratio over the
	// first interval.
	r := 0.7
	e0 := profs[0][0].Err(r)
	e3 := profs[3][0].Err(r)
	if e0 <= e3 {
		t.Errorf("radix: thread 0 Err(%v)=%v must exceed thread 3's %v", r, e0, e3)
	}
}

// The determinism invariant the parallel pipeline guarantees: profiles
// built by the bounded worker pool are byte-identical to the serial
// reference, for every stage — including Decode, whose fetch PC threads
// state across interval boundaries and is fast-forwarded with SeekPC.
func TestBuildProfilesParallelMatchesSerial(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 4, 1, 42)
	for _, stage := range Stages() {
		serial, err := BuildProfilesSerial(streams, stage, cpu.DefaultL1())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			par, err := BuildProfilesWorkersCtx(context.Background(), streams, stage, cpu.DefaultL1(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("%v: %d-worker profiles differ from serial reference", stage, workers)
			}
		}
	}
}

func TestSeekPCMatchesWalkedCircuit(t *testing.T) {
	k, _ := workload.ByName("fmm")
	streams := workload.RunKernel(k, 2, 1, 7)
	ivs := streams[0].Intervals
	if len(ivs) < 2 {
		t.Skip("need at least two intervals")
	}
	walked := NewStageCircuit(Decode)
	for _, iv := range ivs[:len(ivs)-1] {
		walked.DelayTrace(iv)
	}
	sought := NewStageCircuit(Decode)
	sought.SeekPC(ivs[:len(ivs)-1])
	if walked.pc != sought.pc {
		t.Fatalf("SeekPC pc = %#x, walked circuit pc = %#x", sought.pc, walked.pc)
	}
	last := ivs[len(ivs)-1]
	dw := walked.DelayTrace(last)
	ds := sought.DelayTrace(last)
	if !reflect.DeepEqual(dw, ds) {
		t.Error("delay trace after SeekPC differs from a walked circuit")
	}
}

func TestBuildProfilesNoStreams(t *testing.T) {
	if _, err := BuildProfiles(nil, SimpleALU, cpu.DefaultL1()); err == nil {
		t.Error("BuildProfiles(nil) must error")
	}
	if _, err := BuildProfilesSerial(nil, SimpleALU, cpu.DefaultL1()); err == nil {
		t.Error("BuildProfilesSerial(nil) must error")
	}
}

func TestBuildProfilesBadCacheConfig(t *testing.T) {
	k, _ := workload.ByName("ocean")
	streams := workload.RunKernel(k, 2, 1, 1)
	bad := cpu.CacheConfig{Lines: 3, LineBytes: 64, MissPenalty: 20}
	if _, err := BuildProfiles(streams, SimpleALU, bad); err == nil {
		t.Error("invalid cache config must propagate out of the worker pool")
	}
}

func benchProfileStreams(b *testing.B) []*workload.Stream {
	b.Helper()
	k, err := workload.ByName("radix")
	if err != nil {
		b.Fatal(err)
	}
	return workload.RunKernel(k, 4, 1, 2016)
}

func BenchmarkBuildProfilesSerial(b *testing.B) {
	streams := benchProfileStreams(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildProfilesSerial(streams, SimpleALU, cpu.DefaultL1()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildProfilesParallel(b *testing.B) {
	streams := benchProfileStreams(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildProfiles(streams, SimpleALU, cpu.DefaultL1()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIntervalThreadsTranspose(t *testing.T) {
	k, _ := workload.ByName("ocean")
	streams := workload.RunKernel(k, 2, 1, 1)
	profs, err := BuildProfiles(streams, Decode, cpu.DefaultL1())
	if err != nil {
		t.Fatal(err)
	}
	ivs := IntervalThreads(profs)
	if len(ivs) != len(profs[0]) {
		t.Fatalf("intervals = %d, want %d", len(ivs), len(profs[0]))
	}
	for ii := range ivs {
		if len(ivs[ii]) != 2 {
			t.Fatalf("interval %d threads = %d", ii, len(ivs[ii]))
		}
		if ivs[ii][1].N != float64(profs[1][ii].N) {
			t.Fatalf("transpose mixed up N")
		}
	}
}

// Enabling instrumentation must not change a single bit of the profiles:
// the build with obs on is compared field-for-field against the reference
// serial build with obs off.
func TestBuildProfilesUnchangedByInstrumentation(t *testing.T) {
	k, err := workload.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 2, 1, 2016)
	ref, err := BuildProfilesSerial(streams, SimpleALU, cpu.DefaultL1())
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	defer obs.Disable()
	got, err := BuildProfiles(streams, SimpleALU, cpu.DefaultL1())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("instrumented parallel build differs from uninstrumented serial reference")
	}
	snap := obs.Default().Snapshot()
	if snap.Counters["trace.gate_evals"] == 0 {
		t.Error("gate-eval counter not recorded")
	}
	if snap.Counters["cpu.cache.hits"]+snap.Counters["cpu.cache.misses"] != snap.Counters["cpu.cache.accesses"] {
		t.Error("cache hit+miss counters must partition accesses")
	}
	if snap.Spans["trace.build_profiles:SimpleALU"].Count == 0 {
		t.Error("build span not recorded")
	}
	if snap.Spans["trace.interval_build:SimpleALU"].Count == 0 {
		t.Error("interval spans not recorded")
	}
	if snap.Spans["trace.cpi_measure:SimpleALU"].Count == 0 {
		t.Error("CPI spans not recorded")
	}
}

// The simprof acceptance invariant: a scoped build with the simulation
// profiler recording returns profiles DeepEqual to the unscoped,
// profiler-off reference — attribution observes the pipeline, never
// perturbs it — and records issue-phase samples for every interval.
func TestProfilesUnchangedBySimprof(t *testing.T) {
	k, err := workload.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 2, 1, 2016)
	simprof.Disable()
	ref, err := BuildProfiles(streams, SimpleALU, cpu.DefaultL1())
	if err != nil {
		t.Fatal(err)
	}
	simprof.Enable()
	defer simprof.Disable()
	got, err := BuildProfilesScopedCtx(context.Background(), "ocean", streams, SimpleALU, cpu.DefaultL1(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("profiles built with simprof recording differ from the profiler-off reference")
	}
	entries := simprof.Snapshot()
	issue := map[[2]int]bool{} // (core, interval) seen under phase issue
	for _, e := range entries {
		if e.Kernel != "ocean" || e.Phase != simprof.PhaseIssue {
			continue
		}
		if e.Stage != SimpleALU.String() {
			t.Fatalf("issue sample under stage %q", e.Stage)
		}
		issue[[2]int{e.Core, e.Interval}] = true
	}
	for ti, ps := range got {
		for ii := range ps {
			if !issue[[2]int{ti, ii}] {
				t.Errorf("no issue-phase attribution for core %d interval %d", ti, ii)
			}
		}
	}
}

// BenchmarkBuildProfilesStats is BenchmarkBuildProfilesParallel with the
// obs layer recording; comparing the two quantifies the enabled overhead,
// while BenchmarkBuildProfilesParallel itself (obs disabled, the default)
// vs. the pre-instrumentation baseline is the <2% acceptance criterion.
func BenchmarkBuildProfilesStats(b *testing.B) {
	streams := benchProfileStreams(b)
	obs.Enable()
	defer obs.Disable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildProfiles(streams, SimpleALU, cpu.DefaultL1()); err != nil {
			b.Fatal(err)
		}
	}
}

// The trace-level engine contract: for every stage, the levelized
// reference and the bit-parallel + event-driven engine produce identical
// per-instruction delay slices, and the process-wide engine selection
// never changes what DelayTrace returns.
func TestDelayTraceEngineEquivalence(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 2, 1, 2016)
	defer SetEngine(EngineEvent)
	for _, stage := range Stages() {
		for _, s := range streams {
			for ii, iv := range s.Intervals {
				ref := NewStageCircuit(stage)
				ref.SeekPC(s.Intervals[:ii])
				want := ref.DelayTraceLevelized(iv)

				ev := NewStageCircuit(stage)
				ev.SeekPC(s.Intervals[:ii])
				got := ev.DelayTraceEvent(iv)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%v interval %d: event delays differ from levelized", stage, ii)
				}

				for _, eng := range []Engine{EngineLevelized, EngineEvent} {
					SetEngine(eng)
					sc := NewStageCircuit(stage)
					sc.SeekPC(s.Intervals[:ii])
					if !reflect.DeepEqual(want, sc.DelayTrace(iv)) {
						t.Fatalf("%v interval %d: DelayTrace under %v differs", stage, ii, eng)
					}
				}
			}
		}
	}
}

// Full-pipeline equivalence: profiles built under either engine are
// DeepEqual, so every artefact derived from them is byte-identical — the
// invariant the CI engine-equivalence job enforces end to end.
func TestBuildProfilesEngineEquivalence(t *testing.T) {
	k, err := workload.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 2, 1, 2016)
	defer SetEngine(EngineEvent)
	for _, stage := range Stages() {
		SetEngine(EngineLevelized)
		want, err := BuildProfilesSerial(streams, stage, cpu.DefaultL1())
		if err != nil {
			t.Fatal(err)
		}
		SetEngine(EngineEvent)
		got, err := BuildProfilesSerial(streams, stage, cpu.DefaultL1())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%v: profiles differ between engines", stage)
		}
	}
}

// Issue-phase attribution is keyed on touched-gate counts, which are a
// property of the vector stream, not the engine: the simprof samples a
// scoped build records must be identical whichever engine ran.
func TestSimprofAttributionEngineIndependent(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 2, 1, 7)
	defer SetEngine(EngineEvent)
	snapFor := func(eng Engine) []simprof.Entry {
		SetEngine(eng)
		simprof.Enable()
		defer simprof.Disable()
		if _, err := BuildProfilesScopedCtx(context.Background(), "radix", streams, SimpleALU, cpu.DefaultL1(), 2); err != nil {
			t.Fatal(err)
		}
		return simprof.Snapshot()
	}
	want := snapFor(EngineLevelized)
	got := snapFor(EngineEvent)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("simprof attribution differs between engines")
	}
	if len(want) == 0 {
		t.Fatal("no simprof samples recorded")
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		s  string
		e  Engine
		ok bool
	}{{"event", EngineEvent, true}, {"levelized", EngineLevelized, true}, {"", 0, false}, {"Event", 0, false}} {
		e, err := ParseEngine(tc.s)
		if tc.ok != (err == nil) || (tc.ok && e != tc.e) {
			t.Errorf("ParseEngine(%q) = %v, %v", tc.s, e, err)
		}
	}
	if EngineEvent.String() != "event" || EngineLevelized.String() != "levelized" {
		t.Error("engine String() does not round-trip flag spellings")
	}
	if CurrentEngine() != EngineEvent {
		t.Error("default engine is not event")
	}
}

// BuildProfiles must wire each (thread, interval) build span to the same
// thread's previous interval via a happens-before Deps edge — the logical
// program order SeekPC breaks for scheduling, preserved so the sched
// analyzer can reconstruct per-thread chains and the critical path.
func TestBuildProfilesDepEdges(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 4, 1, 42)
	nThreads := len(streams)
	nIv := 0
	for _, s := range streams {
		nIv += len(s.Intervals)
	}
	obs.Enable()
	defer obs.Disable()
	if _, err := BuildProfiles(streams, SimpleALU, cpu.DefaultL1()); err != nil {
		t.Fatal(err)
	}
	recs, dropped := obs.Default().SpanRecords()
	if dropped != 0 {
		t.Fatalf("%d spans dropped", dropped)
	}
	builds := map[int64]obs.SpanRecord{}
	withDep := 0
	for _, r := range recs {
		if r.Name != "trace.interval_build:SimpleALU" {
			continue
		}
		builds[r.ID] = r
		if len(r.Deps) > 1 {
			t.Fatalf("span %d has %d deps, want at most 1 (previous interval)", r.ID, len(r.Deps))
		}
		if len(r.Deps) == 1 {
			withDep++
		}
	}
	if len(builds) != nIv {
		t.Fatalf("recorded %d interval-build spans, want %d", len(builds), nIv)
	}
	// Every interval except each thread's first carries exactly one edge.
	if want := nIv - nThreads; withDep != want {
		t.Fatalf("%d spans carry a dep edge, want %d (all but the first interval per thread)", withDep, want)
	}
	for _, r := range builds {
		if len(r.Deps) == 1 {
			if _, ok := builds[r.Deps[0]]; !ok {
				t.Fatalf("span %d depends on %d, which is not an interval-build span", r.ID, r.Deps[0])
			}
		}
	}
}
