package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"synts/internal/faults"
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadJSONL(strings.NewReader(tc.input)); err == nil {
				t.Fatal("ReadJSONL accepted invalid input")
			}
		})
	}
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

// With a spill file configured, overflow past the in-memory cap streams to
// disk instead of dropping, and the flush-time merge serialises the same
// bytes as a ledger that never overflowed.
func TestLedgerSpillPreservesEventsAndOrder(t *testing.T) {
	evs := make([]Event, 10)
	for i := range evs {
		evs[i] = Event{Kind: KindDecision, Bench: "b", Stage: "s", Solver: "SynTS", Interval: 9 - i, TSR: 0.5}
	}

	spilling := Ledger{capacity: 3}
	if err := spilling.SetSpill(filepath.Join(t.TempDir(), "spill.jsonl")); err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		spilling.Record(e)
	}
	if got := spilling.Spilled(); got != 7 {
		t.Fatalf("Spilled() = %d, want 7", got)
	}
	if got := spilling.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d, want 0 with a spill configured", got)
	}
	all, err := spilling.AllEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(evs) {
		t.Fatalf("AllEvents returned %d events, want %d", len(all), len(evs))
	}

	var fromSpill, uncapped bytes.Buffer
	if err := WriteJSONL(&fromSpill, all); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&uncapped, evs); err != nil {
		t.Fatal(err)
	}
	if fromSpill.String() != uncapped.String() {
		t.Error("spilled ledger serialises differently from an uncapped one")
	}
}

func TestLedgerResetRemovesSpillFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.jsonl")
	l := Ledger{capacity: 1}
	if err := l.SetSpill(path); err != nil {
		t.Fatal(err)
	}
	l.Record(Event{Kind: KindDecision})
	l.Record(Event{Kind: KindBarrier, Core: -1})
	if l.Spilled() != 1 {
		t.Fatalf("Spilled() = %d, want 1", l.Spilled())
	}
	l.Reset()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("spill file still exists after Reset (stat err = %v)", err)
	}
	if l.Spilled() != 0 {
		t.Error("Reset did not clear the spilled count")
	}
}

// Under ledger-spill-torn chaos, truncated spill lines are counted at
// write time, skipped (not fatal) at merge time, and every intact line
// survives — the union stays serialisable.
func TestLedgerSpillTornLinesSkippedInMerge(t *testing.T) {
	if err := faults.Enable(faults.LedgerSpillTorn+"=0.5", 3); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()
	l := Ledger{capacity: 2}
	if err := l.SetSpill(filepath.Join(t.TempDir(), "spill.jsonl")); err != nil {
		t.Fatal(err)
	}
	const total = 10
	for i := 0; i < total; i++ {
		l.Record(Event{Kind: KindDecision, Bench: "b", Stage: "s", Interval: i})
	}
	torn := l.Torn()
	if torn == 0 || torn == total-2 {
		t.Fatalf("rate 0.5 tore %d/%d spill lines; pick a seed that spreads decisions", torn, total-2)
	}
	all, err := l.AllEvents()
	if err != nil {
		t.Fatalf("merge failed over torn lines: %v", err)
	}
	// A torn line keeps a strict prefix, so it can never parse as a full
	// event: exactly the torn records are lost.
	if want := total - int(torn); len(all) != want {
		t.Fatalf("AllEvents returned %d events, want %d (%d torn)", len(all), want, torn)
	}
	if skipped := l.SpillSkipped(); skipped > torn {
		t.Errorf("SpillSkipped() = %d > torn %d", skipped, torn)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, all); err != nil {
		t.Fatalf("surviving events do not serialise: %v", err)
	}
}

// SetMemCap lowers the default ledger's in-memory cap so small runs can
// reach the spill path; 0 restores the default.
func TestSetMemCapForcesSpill(t *testing.T) {
	Enable()
	defer Disable()
	defer SetMemCap(0)
	SetMemCap(2)
	if err := SetSpill(filepath.Join(t.TempDir(), "spill.jsonl")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		Record(Event{Kind: KindDecision, Bench: "b", Stage: "s", Interval: i})
	}
	if got := Spilled(); got != 3 {
		t.Fatalf("Spilled() = %d, want 3 with cap 2 and 5 events", got)
	}
	all, err := defaultLedger.AllEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("AllEvents returned %d events, want 5", len(all))
	}
	SetMemCap(0)
	Enable() // resets; the default cap is back
	Record(Event{Kind: KindDecision})
	if got := Spilled(); got != 0 {
		t.Fatalf("Spilled() = %d after restoring the default cap", got)
	}
}
