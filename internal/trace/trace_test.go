package trace

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"synts/internal/cpu"
	"synts/internal/isa"
	"synts/internal/netlist"
	"synts/internal/obs"
	"synts/internal/simprof"
	"synts/internal/timing"
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

// The TCrit table must hold, bit for bit, the STA critical path of each
// stage's netlist, built afresh here rather than through buildStage.
func TestStageTCritMatchesSTA(t *testing.T) {
	build := map[Stage]func() *netlist.Netlist{
		Decode:     netlist.NewDecode,
		SimpleALU:  func() *netlist.Netlist { return netlist.NewSimpleALU(32) },
		ComplexALU: func() *netlist.Netlist { return netlist.NewComplexALU(32) },
	}
	for _, s := range Stages() {
		sta := timing.NewAnalyzer(build[s]()).CriticalPath()
		if math.Float64bits(s.TCrit()) != math.Float64bits(sta) {
			t.Errorf("%v: TCrit() = %v, STA = %v", s, s.TCrit(), sta)
		}
	}
}

// A table entry that drifts from STA stops the netlist build with a panic
// naming the stage and both values.
func TestBuildStagePanicsOnTableDrift(t *testing.T) {
	want := stageTCrit[Decode]
	stageTCrit[Decode] = math.Nextafter(want, math.Inf(1))
	defer func() { stageTCrit[Decode] = want }()
	defer func() {
		msg := fmt.Sprint(recover())
		for _, part := range []string{"Decode", fmt.Sprint(want), fmt.Sprint(stageTCrit[Decode])} {
			if !strings.Contains(msg, part) {
				t.Errorf("panic %q does not name %s", msg, part)
			}
		}
	}()
	buildStage(Decode)
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
	if len(p.Levels) != 0 {
		t.Error("empty profile must hold no delay levels")
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
// all-zero, a single delay, random windows drawing from a few levels
// (heavy duplicates) that include 0, and windows with 256, 257, 65,536 and
// 65,537 distinct delays, either side of each code width's limit.
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
	for _, distinct := range []int{256, 257, 1 << 16, 1<<16 + 1} {
		ws = append(ws, distinctWindow(rng, distinct))
	}
	return ws
}

// distinctWindow returns a shuffled window holding exactly distinct
// different delays (multiples of 1/4 from 0), each twice.
func distinctWindow(rng *rand.Rand, distinct int) []float64 {
	w := make([]float64, 2*distinct)
	for i := range w {
		w[i] = float64(i%distinct) * 0.25
	}
	rng.Shuffle(len(w), func(a, b int) { w[a], w[b] = w[b], w[a] })
	return w
}

// codeWidth returns the bytes per code c stores.
func codeWidth(c Codes) int {
	switch {
	case c.b1 != nil:
		return 1
	case c.b2 != nil:
		return 2
	case c.b4 != nil:
		return 4
	}
	return 0
}

// narrowestWidth returns the fewest bytes (1, 2 or 4) that hold every
// code of a window with the given number of levels.
func narrowestWidth(levels int) int {
	switch {
	case levels <= 1<<8:
		return 1
	case levels <= 1<<16:
		return 2
	}
	return 4
}

// sampleLevels returns the indexes of the levels whose limits a window's
// check visits: all of a small table; for a large one a stride through it
// plus the indexes either side of each code width's limit and the top.
func sampleLevels(n int) []int {
	if n <= 64 {
		ks := make([]int, n)
		for k := range ks {
			ks[k] = k
		}
		return ks
	}
	var ks []int
	for k := 0; k < n; k += n / 32 {
		ks = append(ks, k)
	}
	for _, k := range []int{255, 256, 257, 1<<16 - 1, 1 << 16, 1<<16 + 1, n - 1} {
		if k < n {
			ks = append(ks, k)
		}
	}
	return ks
}

// streamedProfile numbers delays with nb in a shuffled arrival order, as
// the event engine hands a window over out of program order, and reports
// the arrival at which the codes first widened (-1 if they never did).
func streamedProfile(nb *numbering, rng *rand.Rand, tcrit float64, delays []float64) (*Profile, int) {
	order := rng.Perm(len(delays))
	nb.start(len(delays))
	widened := -1
	for k, i := range order {
		nb.add(i, delays[i])
		if widened < 0 && nb.codes.b1 == nil {
			widened = k
		}
	}
	return nb.profile(tcrit), widened
}

// Differential check of the compact profile against the sorted-float64
// oracle: codes decode losslessly at the narrowest width the window's
// level count allows, the top level is the largest delay, Err matches
// exactly at every limit equal to a level and just either side of it, and
// Cut splits each window exactly where a float compare would. The same
// windows numbered in a shuffled arrival order, through one numbering
// reused across them (as a slot's is), build DeepEqual profiles.
func TestProfileMatchesSortedOracle(t *testing.T) {
	const tcrit = 8 // a power of two, so r = limit/tcrit maps back exactly
	rng := rand.New(rand.NewSource(14))
	var nb numbering
	for wi, delays := range oracleWindows(rng) {
		p := NewProfile(tcrit, delays)
		o := newSortedOracle(tcrit, delays)
		if p.N != len(delays) || p.Codes.Len() != len(delays) {
			t.Fatalf("window %d: N %d, %d codes for %d delays", wi, p.N, p.Codes.Len(), len(delays))
		}
		if got, want := codeWidth(p.Codes), narrowestWidth(len(p.Levels)); got != want {
			t.Fatalf("window %d: %d levels stored in %d-byte codes, want %d", wi, len(p.Levels), got, want)
		}
		for i := range delays {
			if c := p.Codes.At(i); p.Levels[c].Delay != delays[i] {
				t.Fatalf("window %d: code %d of instruction %d decodes to %v, want %v", wi, c, i, p.Levels[c].Delay, delays[i])
			}
		}
		streamed, widened := streamedProfile(&nb, rng, tcrit, delays)
		if !reflect.DeepEqual(streamed, p) {
			t.Fatalf("window %d: the profile numbered in arrival order differs from NewProfile", wi)
		}
		if codeWidth(p.Codes) > 1 && (widened <= 0 || widened >= len(delays)-1) {
			t.Fatalf("window %d: codes widened at arrival %d of %d, want mid-window", wi, widened, len(delays))
		}
		n := len(p.Levels)
		if n > 0 && p.Levels[n-1].Delay != o.maxDelay() {
			t.Fatalf("window %d: top level %v, oracle max %v", wi, p.Levels[n-1].Delay, o.maxDelay())
		}
		// At the top delay the cut is len(Levels), 256 or 65,536 at a
		// width's limit: it must flag nothing, where a cut truncated to
		// the code width would flag every instruction.
		if n > 0 {
			if cut := p.Cut(o.maxDelay()); cut != uint32(n) {
				t.Fatalf("window %d: cut at the top delay %d, want %d", wi, cut, n)
			}
			for i := range delays {
				if c := p.Codes.At(i); c >= uint32(n) {
					t.Fatalf("window %d: code %d of instruction %d is at the cut %d", wi, c, i, n)
				}
			}
		}
		limits := []float64{-1, 0, 1e9}
		for _, k := range sampleLevels(n) {
			d := p.Levels[k].Delay
			limits = append(limits, d, math.Nextafter(d, math.Inf(-1)), math.Nextafter(d, math.Inf(1)))
		}
		for _, limit := range limits {
			r := limit / tcrit
			if got, want := p.Err(r), o.err(r); got != want {
				t.Fatalf("window %d: Err(%v) = %v, oracle %v", wi, r, got, want)
			}
			cut := p.Cut(limit)
			for i, d := range delays {
				if (p.Codes.At(i) >= cut) != (d > limit) {
					t.Fatalf("window %d: delay %v vs limit %v: code %d, cut %d", wi, d, limit, p.Codes.At(i), cut)
				}
			}
		}
	}
}

// A trace numbers its delays as they stream, in the event engine's
// arrival order rather than program order, and must still build exactly
// the profile NewProfile builds from the program-order delays: for every
// window of radix in every stage under both engines, for an empty window
// and for a window that never drives the stage.
func TestStreamedProfileMatchesNewProfile(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 4, 1, 2016)
	adds := make([]isa.Inst, 200)
	for i := range adds {
		adds[i] = isa.Inst{Op: isa.ADD, A: uint32(i), B: uint32(3 * i)}
	}
	defer SetEngine(CurrentEngine())
	for _, e := range []Engine{EngineEvent, EngineLevelized} {
		SetEngine(e)
		for _, stage := range Stages() {
			check := func(what string, earlier [][]isa.Inst, iv []isa.Inst) {
				streamed, traced := NewStageCircuit(stage), NewStageCircuit(stage)
				streamed.SeekPC(earlier)
				traced.SeekPC(earlier)
				if got, want := streamed.Profile(iv), NewProfile(traced.TCrit, traced.DelayTrace(iv)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v engine, %v, %s: streamed profile differs from NewProfile", e, stage, what)
				}
			}
			for ti, s := range streams {
				for ii, iv := range s.Intervals {
					check(fmt.Sprintf("thread %d interval %d", ti, ii), s.Intervals[:ii], iv)
				}
			}
			check("empty window", nil, nil)
			check("window of adds", nil, adds) // drives no ComplexALU
		}
	}
}

// A profile retains its codes and level table and nothing else: at most 6
// bytes per instruction (1 or 2 for the code on radix, the rest for the
// levels), where two float64 copies of every delay took 17.
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
	warmSlots(streams, SimpleALU) // the netlist cache and the slots are kept once per process
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees sync.Pool victims too
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	profs, err := BuildProfilesScopedCtx(context.Background(), "", streams, SimpleALU, cpu.DefaultL1(), 0)
	if err != nil {
		t.Fatal(err)
	}
	perInst := (float64(heap()) - float64(before)) / float64(n)
	runtime.KeepAlive(profs)
	runtime.KeepAlive(streams) // counted in both readings, not freed between them
	t.Logf("%d instructions retained %.2f bytes each", n, perInst)
	if perInst > 6 {
		t.Errorf("profiles retain %.2f bytes per instruction, want at most 6", perInst)
	}
}

// warmSlots runs every window of streams at stage through every slot, so
// each slot holds the analyzer and the buffer and table sizes these
// windows need, and a build measured afterwards grows none of them.
func warmSlots(streams []*workload.Stream, stage Stage) {
	held := make([]*slot, cap(slotPool()))
	for i := range held {
		held[i] = acquireSlot()
	}
	for _, s := range held {
		for _, st := range streams {
			for ii, iv := range st.Intervals {
				sc := NewStageCircuit(stage)
				sc.SeekPC(st.Intervals[:ii])
				s.profile(sc, CurrentEngine(), iv)
			}
		}
	}
	for _, s := range held {
		s.release()
	}
}

// A warmed build allocates little beyond the profiles it returns: at most
// 12 bytes per instruction in every stage, where a fresh analyzer, delay
// slice and numbering tables per window took 140 (Decode), 227
// (SimpleALU) and 1,255 (ComplexALU).
func TestBuildProfilesAllocationBound(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 4, 2, 2016)
	n := 0
	for _, s := range streams {
		n += s.TotalInstructions()
	}
	for _, stage := range Stages() {
		warmSlots(streams, stage)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		profs, err := BuildProfilesScopedCtx(context.Background(), "", streams, stage, cpu.DefaultL1(), 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(profs)
		perInst := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		t.Logf("%v: %d instructions, %.2f bytes allocated each", stage, n, perInst)
		if perInst > 12 {
			t.Errorf("%v: a warmed build allocates %.2f bytes per instruction, want at most 12", stage, perInst)
		}
	}
}

// The slots bound the traces in flight: concurrent builds from more
// goroutines than GOMAXPROCS, over every stage, never run more than
// GOMAXPROCS traces at once, and each matches the serial reference.
func TestBuildProfilesSlotBound(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 4, 1, 42)
	want := map[Stage][][]*Profile{}
	for _, stage := range Stages() {
		if want[stage], err = BuildProfilesSerial(streams, stage, cpu.DefaultL1()); err != nil {
			t.Fatal(err)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	peakInFlight.Store(0)
	var wg sync.WaitGroup
	for i := 0; i < 2*procs+1; i++ {
		stage := Stages()[i%len(Stages())]
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := BuildProfilesScopedCtx(context.Background(), "", streams, stage, cpu.DefaultL1(), 4)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want[stage]) {
				t.Errorf("%v: concurrent build differs from the serial reference", stage)
			}
		}()
	}
	wg.Wait()
	peak := int(peakInFlight.Load())
	t.Logf("GOMAXPROCS %d, peak traces in flight %d", procs, peak)
	if peak < 1 || peak > procs {
		t.Errorf("peak traces in flight %d, want 1..%d", peak, procs)
	}
	if free := len(slotPool()); free != cap(slotPool()) {
		t.Errorf("%d of %d slots free after every build returned", free, cap(slotPool()))
	}
}

// One slot reused for windows of every stage, in mixed order and with
// per-instruction attribution on, computes exactly what a fresh slot
// does: the same delays, profile, per-instruction touched counts and
// trace.gate_evals total.
func TestSlotReuseMatchesFreshSlot(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 2, 1, 7)
	type window struct {
		stage     Stage
		thread, i int
	}
	var ws []window
	for _, stage := range Stages() {
		for ti, s := range streams {
			for ii := range s.Intervals {
				ws = append(ws, window{stage, ti, ii})
			}
		}
	}
	rand.New(rand.NewSource(16)).Shuffle(len(ws), func(a, b int) { ws[a], ws[b] = ws[b], ws[a] })
	simprof.Enable()
	defer simprof.Disable()
	obs.Enable()
	defer obs.Disable()
	type result struct {
		p       *Profile
		delays  []float64
		touched []int64
		gates   int64
	}
	run := func(s *slot, w window) result {
		ivs := streams[w.thread].Intervals
		sc := NewStageCircuit(w.stage)
		sc.SeekPC(ivs[:w.i])
		before := obs.C("trace.gate_evals").Value()
		p := s.profile(sc, CurrentEngine(), ivs[w.i])
		delays := make([]float64, p.N)
		for i := range delays {
			delays[i] = p.Levels[p.Codes.At(i)].Delay
		}
		return result{p, delays, sc.lastTouched, obs.C("trace.gate_evals").Value() - before}
	}
	reused := acquireSlot()
	defer reused.release()
	for _, w := range ws {
		want := run(new(slot), w)
		got := run(reused, w)
		if want.touched == nil {
			t.Fatal("no per-instruction touched counts with simprof on")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v thread %d interval %d: reused slot differs from a fresh one", w.stage, w.thread, w.i)
		}
	}
}

// A trace that panics still releases its slot, and the next trace through
// that slot is exact.
func TestSlotReleasedOnPanic(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	iv := workload.RunKernel(k, 2, 1, 7)[0].Intervals[0]
	pool := slotPool()
	// Hold every slot but one, so each trace below runs on the same slot.
	held := make([]*slot, cap(pool)-1)
	for i := range held {
		held[i] = acquireSlot()
	}
	defer func() {
		for _, s := range held {
			s.release()
		}
	}()
	want := new(slot).profile(NewStageCircuit(SimpleALU), CurrentEngine(), iv)
	NewStageCircuit(SimpleALU).Profile(iv) // leaves the slot's analyzer mid-stream

	broken := NewStageCircuit(SimpleALU)
	broken.bBus = netlist.Bus{Name: "b", Nets: []netlist.Net{-1}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a trace through a broken bus did not panic")
			}
		}()
		broken.Profile(iv)
	}()
	if len(pool) != 1 {
		t.Fatalf("%d slots free after the panic, want 1", len(pool))
	}
	if got := NewStageCircuit(SimpleALU).Profile(iv); !reflect.DeepEqual(got, want) {
		t.Fatal("the trace after a panic differs from a fresh slot's")
	}
}

func TestBuildProfilesEndToEnd(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 4, 1, 42)
	profs, err := BuildProfilesScopedCtx(context.Background(), "", streams, SimpleALU, cpu.DefaultL1(), 0)
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
			if n := len(p.Levels); n > 0 && p.Levels[n-1].Delay > p.TCrit {
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
	profs, err := BuildProfilesScopedCtx(context.Background(), "", streams, SimpleALU, cpu.DefaultL1(), 0)
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
			par, err := BuildProfilesScopedCtx(context.Background(), "", streams, stage, cpu.DefaultL1(), workers)
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
	if _, err := BuildProfilesScopedCtx(context.Background(), "", nil, SimpleALU, cpu.DefaultL1(), 0); err == nil {
		t.Error("a build with no streams must error")
	}
	if _, err := BuildProfilesSerial(nil, SimpleALU, cpu.DefaultL1()); err == nil {
		t.Error("BuildProfilesSerial(nil) must error")
	}
}

func TestBuildProfilesBadCacheConfig(t *testing.T) {
	k, _ := workload.ByName("ocean")
	streams := workload.RunKernel(k, 2, 1, 1)
	bad := cpu.CacheConfig{Lines: 3, LineBytes: 64, MissPenalty: 20}
	if _, err := BuildProfilesScopedCtx(context.Background(), "", streams, SimpleALU, bad, 0); err == nil {
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
		if _, err := BuildProfilesScopedCtx(context.Background(), "", streams, SimpleALU, cpu.DefaultL1(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIntervalThreadsTranspose(t *testing.T) {
	k, _ := workload.ByName("ocean")
	streams := workload.RunKernel(k, 2, 1, 1)
	profs, err := BuildProfilesScopedCtx(context.Background(), "", streams, Decode, cpu.DefaultL1(), 0)
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
	got, err := BuildProfilesScopedCtx(context.Background(), "", streams, SimpleALU, cpu.DefaultL1(), 0)
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
	if snap.Histograms["trace.build_profiles:SimpleALU"].Count == 0 {
		t.Error("build region not recorded")
	}
	if snap.Histograms["trace.interval_build:SimpleALU"].Count == 0 {
		t.Error("interval regions not recorded")
	}
	if snap.Histograms["trace.cpi_measure:SimpleALU"].Count == 0 {
		t.Error("CPI regions not recorded")
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
	ref, err := BuildProfilesScopedCtx(context.Background(), "", streams, SimpleALU, cpu.DefaultL1(), 0)
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
		if _, err := BuildProfilesScopedCtx(context.Background(), "", streams, SimpleALU, cpu.DefaultL1(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// The trace-level engine contract: for every stage, the levelized
// reference and the bit-parallel + event-driven engine produce identical
// per-instruction delay slices, so the process-wide engine selection
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
				SetEngine(EngineLevelized)
				ref := NewStageCircuit(stage)
				ref.SeekPC(s.Intervals[:ii])
				want := ref.DelayTrace(iv)

				SetEngine(EngineEvent)
				ev := NewStageCircuit(stage)
				ev.SeekPC(s.Intervals[:ii])
				if !reflect.DeepEqual(want, ev.DelayTrace(iv)) {
					t.Fatalf("%v interval %d: event delays differ from levelized", stage, ii)
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
