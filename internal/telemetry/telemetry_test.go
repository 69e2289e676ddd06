package telemetry

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
)

// sampleEvents builds a mixed-kind event set spread over two benches, two
// stages, two solvers, several cores and intervals — enough coordinate
// collisions to exercise every level of the canonical sort.
func sampleEvents() []Event {
	var evs []Event
	for _, bench := range []string{"radix", "kmeans"} {
		for _, stage := range []string{"Decode", "SimpleALU"} {
			for _, solver := range []string{"SynTS", "No TS"} {
				for iv := 0; iv < 2; iv++ {
					for c := 0; c < 3; c++ {
						evs = append(evs, Event{
							Kind: KindDecision, Bench: bench, Stage: stage, Solver: solver,
							Theta: 0.5, Interval: iv, Core: c, V: 0.9, TSR: 0.1 * float64(c+1),
							EstErr: 0.01 * float64(c), ActErr: 0.01 * float64(c),
							Energy: 1.5, Time: 2.5, Instrs: 1000, IntervalCycles: 1200,
						})
					}
					evs = append(evs, Event{
						Kind: KindBarrier, Bench: bench, Stage: stage, Solver: solver,
						Theta: 0.5, Interval: iv, Core: -1, Cores: 3, Energy: 4.5, Time: 2.5,
					})
				}
			}
			for iv := 0; iv < 2; iv++ {
				for c := 0; c < 3; c++ {
					for _, tsr := range []float64{0.2, 0.4} {
						evs = append(evs, Event{
							Kind: KindEstimate, Bench: bench, Stage: stage,
							Interval: iv, Core: c, TSR: tsr,
							EstErr: 0.02, ActErr: 0.03, Instrs: 1000,
							SampleBudget: 50, SampleCycles: 70, IntervalCycles: 1200,
						})
					}
				}
			}
		}
	}
	return evs
}

// TestWriteJSONLDeterministicUnderShuffle is the ledger's core invariant:
// the serialised bytes are a pure function of the event multiset, not of
// arrival order — the property that makes -j 1 and -j 4 ledgers
// byte-identical.
func TestWriteJSONLDeterministicUnderShuffle(t *testing.T) {
	base := sampleEvents()
	var want bytes.Buffer
	if err := WriteJSONL(&want, base); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]Event(nil), base...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		var got bytes.Buffer
		if err := WriteJSONL(&got, shuffled); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("trial %d: shuffled input changed the serialised ledger", trial)
		}
	}
	if !strings.HasPrefix(want.String(), `{"schema":"synts-events/v1"}`+"\n") {
		t.Fatalf("ledger does not start with the schema header: %q", want.String()[:40])
	}
}

func TestReadJSONLRoundTrip(t *testing.T) {
	base := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, base); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(base) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(base))
	}
	// Re-serialising the parsed events must reproduce the bytes exactly
	// (the canonical-order property obscheck relies on).
	var again bytes.Buffer
	if err := WriteJSONL(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("parse + re-serialise changed the ledger bytes")
	}
}

func TestReadJSONLRejectsBadInput(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"wrong schema", `{"schema":"synts-events/v0"}` + "\n"},
		{"not json header", "hello\n"},
		{"unknown event field", `{"schema":"synts-events/v1"}` + "\n" + `{"kind":"decision","bogus":1}` + "\n"},
		{"invalid event", `{"schema":"synts-events/v1"}` + "\n" + `{"kind":"bogus"}` + "\n"},
		{"data after the event", `{"schema":"synts-events/v1"}` + "\n" + `{"kind":"decision"} {"kind":"decision"}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadJSONL(strings.NewReader(tc.input)); err == nil {
				t.Fatal("ReadJSONL accepted invalid input")
			}
		})
	}
}

// FuzzReadJSONL feeds arbitrary bytes to the ledger reader: any input
// gives events or an error, never a panic, and a ledger it accepts is a
// fixed point after one write: writing the events it returned, reading
// that back and writing again reproduces the same bytes. The seeds in
// testdata/fuzz/FuzzReadJSONL are lines cut from a size-1 batch ledger
// and from a router ledger.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteJSONL(&first, events); err != nil {
			t.Fatalf("writing %d accepted events: %v", len(events), err)
		}
		again, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading back the written ledger: %v", err)
		}
		if err := WriteJSONL(&second, again); err != nil {
			t.Fatalf("writing the read-back events: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write, read, write changed the ledger:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}

func TestEventValidate(t *testing.T) {
	ok := Event{Kind: KindDecision, Core: 0, TSR: 0.3, EstErr: 0.1, ActErr: 0.2}
	cases := []struct {
		name    string
		mutate  func(*Event)
		wantErr bool
	}{
		{"valid decision", func(e *Event) {}, false},
		{"valid barrier", func(e *Event) { e.Kind = KindBarrier; e.Core = -1 }, false},
		{"unknown kind", func(e *Event) { e.Kind = "mystery" }, true},
		{"negative interval", func(e *Event) { e.Interval = -1 }, true},
		{"core below -1", func(e *Event) { e.Core = -2 }, true},
		{"barrier with core", func(e *Event) { e.Kind = KindBarrier; e.Core = 2 }, true},
		{"est_err above 1", func(e *Event) { e.EstErr = 1.5 }, true},
		{"act_err negative", func(e *Event) { e.ActErr = -0.1 }, true},
		{"tsr above 1", func(e *Event) { e.TSR = 1.01 }, true},
		{"negative energy", func(e *Event) { e.Energy = -1 }, true},
		{"negative sample_cycles", func(e *Event) { e.SampleCycles = -1 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := ok
			tc.mutate(&e)
			err := e.Validate()
			if tc.wantErr && err == nil {
				t.Fatal("Validate() accepted an invalid event")
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("Validate() rejected a valid event: %v", err)
			}
		})
	}
}

// TestRecordDisabledZeroAlloc pins the acceptance criterion that telemetry
// costs nothing on the solver hot path when it is off.
func TestRecordDisabledZeroAlloc(t *testing.T) {
	Disable()
	ev := Event{Kind: KindDecision, Bench: "b", Stage: "s", Solver: "SynTS"}
	allocs := testing.AllocsPerRun(1000, func() { Record(ev) })
	if allocs != 0 {
		t.Fatalf("Record with telemetry disabled allocates %.1f/op, want 0", allocs)
	}
	if Len() != 0 {
		t.Fatalf("disabled Record stored %d events", Len())
	}
}

func BenchmarkRecordDisabled(b *testing.B) {
	Disable()
	ev := Event{Kind: KindDecision, Bench: "radix", Stage: "SimpleALU", Solver: "SynTS"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Record(ev)
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	Enable()
	defer func() {
		Disable()
		defaultLedger.Reset()
	}()
	ev := Event{Kind: KindDecision, Bench: "radix", Stage: "SimpleALU", Solver: "SynTS"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Record(ev)
	}
}

func TestLedgerCapCountsDrops(t *testing.T) {
	var l Ledger
	l.events = make([]Event, maxEvents) // simulate a full ledger
	l.Record(Event{Kind: KindDecision})
	if got := l.Dropped(); got != 1 {
		t.Fatalf("Dropped() = %d, want 1", got)
	}
	l.Reset()
	if l.Dropped() != 0 || len(l.Events()) != 0 {
		t.Fatal("Reset did not clear the ledger")
	}
}

// TestRecordConcurrent exercises the ledger under the race detector: many
// goroutines recording while a reader polls Len and Events.
func TestRecordConcurrent(t *testing.T) {
	Enable()
	defer Disable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				Record(Event{Kind: KindDecision, Core: g, Interval: i})
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			_ = Len()
			_ = Events()
		}
		close(done)
	}()
	wg.Wait()
	<-done
	if got := Len(); got != 8*200 {
		t.Fatalf("recorded %d events, want %d", got, 8*200)
	}
}

func TestAggregate(t *testing.T) {
	sums := Aggregate(sampleEvents(), "radix")
	if len(sums) != 2 {
		t.Fatalf("Aggregate returned %d stage summaries, want 2", len(sums))
	}
	s := sums[0]
	if s.Bench != "radix" || s.Stage != "Decode" {
		t.Fatalf("first summary is %s/%s, want radix/Decode", s.Bench, s.Stage)
	}
	// 2 solvers x 2 intervals x 3 cores decisions; estimates: 2 intervals x
	// 3 cores x 2 TSRs = 12, none duplicated.
	if s.Estimates != 12 {
		t.Fatalf("Estimates = %d, want 12", s.Estimates)
	}
	if len(s.Solvers) != 2 || s.Solvers[0].Decisions != 6 {
		t.Fatalf("solver rollup wrong: %+v", s.Solvers)
	}
	if len(s.Curves) != 3 || len(s.Curves[0].Points) != 2 {
		t.Fatalf("curves wrong: %d cores, %d points", len(s.Curves), len(s.Curves[0].Points))
	}
	// Each (core, interval) contributes 1200 interval cycles once, despite
	// two TSR levels sampled there: 3 cores x 2 intervals x 1200.
	if s.IntervalCycles != 7200 {
		t.Fatalf("IntervalCycles = %v, want 7200 (estimate dedup by (core,interval) broken?)", s.IntervalCycles)
	}
	// Sample cycles accumulate per estimate: 12 x 70.
	if s.SampleCycles != 840 {
		t.Fatalf("SampleCycles = %v, want 840", s.SampleCycles)
	}
	wantOverhead := 840.0 / 7200.0
	if s.Overhead != wantOverhead {
		t.Fatalf("Overhead = %v, want %v", s.Overhead, wantOverhead)
	}
	// All estimates diverge by |0.02-0.03| (compare with a tolerance:
	// runtime float64 subtraction rounds differently than the constant).
	d := s.Divergence
	if d.N != 12 || math.Abs(d.P50-0.01) > 1e-12 || math.Abs(d.Max-0.01) > 1e-12 {
		t.Fatalf("Divergence = %+v, want N=12 all at ~0.01", d)
	}
}

// TestAggregateDedupsRepeatedEstimates feeds the same estimate event twice
// (as when Fig 6.17 and Fig 6.18 both sample a point) and checks the
// overhead is counted once.
func TestAggregateDedupsRepeatedEstimates(t *testing.T) {
	e := Event{
		Kind: KindEstimate, Bench: "b", Stage: "s", Core: 0, Interval: 0, TSR: 0.2,
		EstErr: 0.1, ActErr: 0.1, SampleBudget: 10, SampleCycles: 20, IntervalCycles: 100, Instrs: 50,
	}
	sums := Aggregate([]Event{e, e}, "")
	if len(sums) != 1 {
		t.Fatalf("got %d summaries", len(sums))
	}
	s := sums[0]
	if s.Estimates != 2 {
		t.Fatalf("raw estimate count = %d, want 2", s.Estimates)
	}
	if s.SampleCycles != 20 || s.IntervalCycles != 100 || s.SampledInstrs != 10 {
		t.Fatalf("dedup failed: SampleCycles=%v IntervalCycles=%v SampledInstrs=%v",
			s.SampleCycles, s.IntervalCycles, s.SampledInstrs)
	}
	if s.Divergence.N != 1 {
		t.Fatalf("Divergence.N = %d, want 1", s.Divergence.N)
	}
}

func TestPercentilesNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	p := percentiles(xs)
	if p.N != 5 || p.P50 != 3 || p.P95 != 5 || p.P99 != 5 || p.Max != 5 {
		t.Fatalf("percentiles = %+v", p)
	}
	if z := percentiles(nil); z.N != 0 || z.Max != 0 {
		t.Fatalf("empty percentiles = %+v", z)
	}
}

// WriteLedger, the -events-out finish step, writes what the cap kept and
// reports what it dropped in one warning line; with nothing dropped it
// warns nothing. The test lowers the default ledger's cap rather than
// recording 2^21 events.
func TestWriteLedgerReportsDropped(t *testing.T) {
	Enable()
	defer Disable()
	defer func() { defaultLedger.capacity = 0 }()
	defaultLedger.capacity = 2
	for i := 0; i < 5; i++ {
		Record(Event{Kind: KindDecision, Bench: "b", Stage: "s", Interval: i})
	}
	var ledger, warn bytes.Buffer
	if err := WriteLedger(&ledger, "synts", &warn); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&ledger)
	if err != nil {
		t.Fatalf("ledger not readable: %v", err)
	}
	if len(events) != 2 {
		t.Errorf("ledger holds %d events, want the cap, 2", len(events))
	}
	if msg := warn.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "synts: ") || !strings.Contains(msg, " 3 event(s) ") {
		t.Errorf("warning %q, want one line under the synts prefix naming 3 dropped events", msg)
	}

	Enable() // resets the events and the dropped count
	Record(Event{Kind: KindDecision, Bench: "b", Stage: "s"})
	ledger.Reset()
	warn.Reset()
	if err := WriteLedger(&ledger, "synts", &warn); err != nil {
		t.Fatal(err)
	}
	if warn.Len() != 0 {
		t.Errorf("warning %q with nothing dropped, want none", warn.String())
	}
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// Writing a ledger allocates its marshalled lines (about the ledger's
// size) and a sort index, and copies no events: at most 1.7 times the
// ledger's bytes, half of the 3.45 times that copying the events three
// times cost. The shape is a four-core daemon's, 29 events per answered
// request (an estimate per TSR level, a decision per core, a barrier)
// with GenStream's rounding of the request's numbers, 34,017 events in
// all: about the largest ledger a CI daemon writes.
func TestWriteLedgerAllocationBound(t *testing.T) {
	// The race detector's sync.Pool drops pooled encoders at random, so
	// json.Marshal allocates more under it.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the bound is measured without the race detector")
			}
		}
	}
	Enable()
	defer Disable()
	defer defaultLedger.Reset()
	rng := rand.New(rand.NewSource(1))
	tenants := []string{"radix", "fmm", "ocean", "barnes", "cholesky", "lu", "fft", "water-sp", "raytrace", "kmeans"}
	stages := []string{"Decode", "SimpleALU", "ComplexALU"}
	tsrs := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1}
	for req := 0; req < 1173; req++ {
		base := Event{
			Bench: tenants[req%len(tenants)], Stage: stages[req%len(stages)], Solver: "service-poly",
			Theta: math.Round(rng.Float64()*2000) / 1000, Interval: req / len(tenants),
		}
		var energy, texec float64
		for c := 0; c < 4; c++ {
			n := math.Round(1e4 + rng.Float64()*9e4)
			cpi := 1 + math.Round(rng.Float64()*1000)/1000
			for k, tsr := range tsrs {
				e := base
				e.Kind, e.Core, e.TSR = KindEstimate, c, tsr
				e.EstErr = math.Round(rng.Float64()*float64(len(tsrs)-1-k)*1e5) / 1e6
				e.ActErr = e.EstErr
				Record(e)
			}
			e := base
			e.Kind, e.Core, e.V, e.TSR = KindDecision, c, 0.7+rng.Float64()*0.3, tsrs[rng.Intn(len(tsrs))]
			e.EstErr = rng.Float64() / 100
			e.ActErr = e.EstErr
			e.Replays, e.Energy, e.Time = e.EstErr*n, rng.Float64()*1e5, rng.Float64()*1e5
			e.Instrs, e.IntervalCycles = n, n*cpi
			energy += e.Energy
			texec = math.Max(texec, e.Time)
			Record(e)
		}
		e := base
		e.Kind, e.Core, e.Cores, e.Energy, e.Time = KindBarrier, -1, 4, energy, texec
		Record(e)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var out countingWriter
	if err := WriteLedger(&out, "synts", io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	ratio := float64(alloc) / float64(out.n)
	t.Logf("%d events, %d ledger bytes, %d bytes allocated (%.2fx)", Len(), out.n, alloc, ratio)
	if ratio > 1.7 {
		t.Errorf("writing a %d-byte ledger allocated %d bytes (%.2fx), want at most 1.7x", out.n, alloc, ratio)
	}
}
