// Package telemetry is the simulation-domain decision ledger: where
// internal/obs instruments the *host pipeline* (queues, caches, spans),
// this package records what the *simulated system* decided — one
// structured event per (core, barrier-interval) solver decision, one per
// barrier interval, one per online error-probability estimate, and one
// per cycle-level Razor replay — so the paper's §6 analysis (why did each
// solver pick each operating point, how far off was the sampling
// estimator, what did the sampling phase cost) can be answered from data
// instead of re-derivation.
//
// The package is stdlib-only and follows the obs discipline: recording is
// gated on one atomic load, every entry point is safe with telemetry
// disabled, and the disabled hot path performs zero allocations. Events
// are buffered in memory and written as a schema-versioned JSONL ledger
// ("synts-events/v1") in a canonical sort order, so the ledger is
// byte-identical regardless of how many workers produced the events.
package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// SchemaVersion identifies the ledger layout; the first JSONL line is a
// header record carrying it.
const SchemaVersion = "synts-events/v1"

// Event kinds.
const (
	// KindDecision is one (core, barrier-interval) operating-point choice:
	// which voltage and TSR a solver assigned to a core, the estimated and
	// actual error probability at that point, the expected Razor replay
	// count, and the core's interval energy and time.
	KindDecision = "decision"
	// KindBarrier summarises one barrier interval: the solver's total
	// energy and the barrier time (the max core finish time), Core = -1.
	KindBarrier = "barrier"
	// KindEstimate is one online sampling measurement: the estimator's
	// error rate for (core, TSR level) against the full-trace truth, with
	// the sample budget and cycle cost that bought it.
	KindEstimate = "estimate"
	// KindReplay is one cycle-level Razor replay of a whole interval at a
	// TSR, with observed errors/cycles and the Eq. 4.1 analytic cycles.
	KindReplay = "replay"
	// KindFallback is one guard-band rejection: the online solver judged a
	// core's sampling estimates implausible (Reason says why) and pinned
	// that core to the nominal V/TSR instead of acting on them.
	KindFallback = "fallback"
	// KindShed is one solver-service admission rejection: a request was
	// turned away before solving (Reason says why — queue-full or
	// draining), Core = -1. Shed events are how the service's load-shedding
	// behaviour becomes auditable in the same canonical ledger as the
	// decisions it protected.
	KindShed = "shed"
	// KindBreaker is one circuit-breaker state transition in the fleet
	// layer: Bench names the backend, Reason is "<state>:<cause>" (e.g.
	// "open:consecutive-failures", "closed:probe-ok"), Core = -1.
	KindBreaker = "breaker"
	// KindFailover is one fleet failover: a request attempt lost its
	// backend (Bench) and was replayed elsewhere — the system-level Razor
	// replay. Reason names the cause (backend-error or draining),
	// Core = -1.
	KindFailover = "failover"
)

// Scope names the experiment context an event was recorded under.
// Emission helpers that receive a zero Scope record nothing, so library
// paths shared with ablations stay ledger-silent.
type Scope struct {
	Bench string
	Stage string
}

// Zero reports whether the scope is empty (no attributable context).
func (s Scope) Zero() bool { return s.Bench == "" && s.Stage == "" }

// Event is one ledger record. A single wide schema covers all kinds;
// fields a kind does not use stay at their zero value. All numeric fields
// are always serialised so consumers can parse positionally-blind.
type Event struct {
	Kind     string  `json:"kind"`
	Bench    string  `json:"bench,omitempty"`
	Stage    string  `json:"stage,omitempty"`
	Solver   string  `json:"solver,omitempty"`
	Theta    float64 `json:"theta"`
	Interval int     `json:"interval"`
	// Core is the thread/core index; -1 on barrier events.
	Core int `json:"core"`
	// Cores is the interval's core count (barrier events).
	Cores int     `json:"cores,omitempty"`
	V     float64 `json:"v"`
	TSR   float64 `json:"tsr"`
	// EstErr is the error probability the solver believed (sampling
	// estimate online, the oracle value offline); ActErr is the truth from
	// the full delay trace / replay.
	EstErr float64 `json:"est_err"`
	ActErr float64 `json:"act_err"`
	// Replays counts Razor replay events (expected count for analytic
	// decisions, observed count for replay events).
	Replays float64 `json:"replays"`
	Energy  float64 `json:"energy"`
	Time    float64 `json:"time"`
	Instrs  float64 `json:"instrs"`
	// Cycles / AnalyticCycles are the replayed and Eq. 4.1 cycle counts
	// (replay events).
	Cycles         float64 `json:"cycles"`
	AnalyticCycles float64 `json:"analytic_cycles"`
	// SampleBudget is the instructions actually sampled (estimate events:
	// at this TSR level; decision events: the thread's whole budget).
	SampleBudget float64 `json:"sample_budget"`
	// SampleCycles is the cycle cost of those samples, including replay
	// penalties at the sampled level.
	SampleCycles float64 `json:"sample_cycles"`
	// IntervalCycles is the interval's error-free cycle count (N x
	// CPI_base), the denominator of the §6.3 sampling-overhead fraction.
	IntervalCycles float64 `json:"interval_cycles"`
	// Reason is the guard-band rejection class on fallback events
	// (nan-estimate, out-of-range, non-monotone, nonzero-at-nominal,
	// divergence) or the admission rejection class on shed events
	// (queue-full, draining); empty on every other kind.
	Reason string `json:"reason,omitempty"`
	// Trace is the 16-hex distributed-trace ID of the request that caused
	// the event, linking the decision ledger to synts-trace/v1 artifacts
	// (`synts trace`). Only fleet-path kinds (shed, fallback, breaker,
	// failover) may carry it; always empty for batch runs and whenever
	// the request arrived without trace context.
	Trace string `json:"trace,omitempty"`
}

// maxEvents bounds the ledger so a pathological loop cannot grow it
// without limit; past it Record counts each event as dropped, and the
// -events-out finish step reports the count. A size-2 `synts all` records
// about 6,600 events and a daemon about 28 per request.
const maxEvents = 1 << 21

// Ledger is one event store. The package-level functions use a process
// default; tests may construct private ledgers.
type Ledger struct {
	mu       sync.Mutex
	events   []Event
	dropped  int64
	capacity int // event cap; 0 means maxEvents (tests lower it)
}

var (
	enabled       atomic.Bool
	defaultLedger = &Ledger{}
)

// Enabled reports whether the ledger is recording. Emission sites that
// must assemble an event (or replay a trace) to record it should gate on
// this so the disabled path stays one atomic load with zero allocations.
func Enabled() bool { return enabled.Load() }

// Enable clears the ledger and starts recording.
func Enable() {
	defaultLedger.Reset()
	enabled.Store(true)
}

// Disable stops recording. Already-collected events stay readable.
func Disable() { enabled.Store(false) }

// Record appends an event to the default ledger; no-op while disabled.
func Record(e Event) {
	if !enabled.Load() {
		return
	}
	defaultLedger.Record(e)
}

// Record appends an event to l; past the cap it counts the event as
// dropped instead.
func (l *Ledger) Record(e Event) {
	l.mu.Lock()
	if len(l.events) < l.limit() {
		l.events = append(l.events, e)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// limit is the ledger's event cap.
func (l *Ledger) limit() int {
	if l.capacity > 0 {
		return l.capacity
	}
	return maxEvents
}

// Reset drops all recorded events and the dropped count.
func (l *Ledger) Reset() {
	l.mu.Lock()
	l.events = nil
	l.dropped = 0
	l.mu.Unlock()
}

// Events returns a copy of the recorded events in arrival order.
func (l *Ledger) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Dropped returns how many events the cap discarded.
func (l *Ledger) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Events returns a copy of the default ledger's events.
func Events() []Event { return defaultLedger.Events() }

// Dropped returns the default ledger's dropped-event count.
func Dropped() int64 { return defaultLedger.Dropped() }

// Len returns the default ledger's event count (cheap, for live gauges).
func Len() int {
	defaultLedger.mu.Lock()
	defer defaultLedger.mu.Unlock()
	return len(defaultLedger.events)
}

// header is the first JSONL line.
type header struct {
	Schema string `json:"schema"`
}

// canonicalOrder returns the indices of events in canonical order: by
// experiment coordinates first, with the serialised line as the final
// tiebreak, so any two runs that record the same multiset of events (e.g.
// -j 1 vs -j 4) serialise to byte-identical ledgers.
func canonicalOrder(events []Event, lines [][]byte) []int {
	idx := make([]int, len(events))
	for i := range idx {
		idx[i] = i
	}
	less := func(a, b int) bool {
		x, y := &events[a], &events[b]
		switch {
		case x.Bench != y.Bench:
			return x.Bench < y.Bench
		case x.Stage != y.Stage:
			return x.Stage < y.Stage
		case x.Solver != y.Solver:
			return x.Solver < y.Solver
		case x.Kind != y.Kind:
			return x.Kind < y.Kind
		case x.Theta != y.Theta:
			return x.Theta < y.Theta
		case x.Interval != y.Interval:
			return x.Interval < y.Interval
		case x.Core != y.Core:
			return x.Core < y.Core
		case x.TSR != y.TSR:
			return x.TSR < y.TSR
		default:
			return bytes.Compare(lines[a], lines[b]) < 0
		}
	}
	sort.SliceStable(idx, func(i, j int) bool { return less(idx[i], idx[j]) })
	return idx
}

// WriteJSONL writes the schema header plus one canonical-ordered JSON
// line per event. The output is a pure function of the event multiset:
// no timestamps, no map iteration, shortest-round-trip float encoding.
func WriteJSONL(w io.Writer, events []Event) error {
	lines := make([][]byte, len(events))
	for i := range events {
		b, err := json.Marshal(&events[i])
		if err != nil {
			return err
		}
		lines[i] = b
	}
	bw := bufio.NewWriter(w)
	hb, err := json.Marshal(header{Schema: SchemaVersion})
	if err != nil {
		return err
	}
	bw.Write(hb)
	bw.WriteByte('\n')
	for _, i := range canonicalOrder(events, lines) {
		bw.Write(lines[i])
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteLedger writes the default ledger's events to w in canonical order
// (WriteJSONL): the -events-out finish step of every synts process. The
// events the cap dropped are not in it, so when there are any, one line
// on warn, under the who prefix, says how many.
func WriteLedger(w io.Writer, who string, warn io.Writer) error {
	// Record only appends and Reset only drops the slice, so the events
	// in hand never change after the lock is released: they are written
	// without a copy.
	defaultLedger.mu.Lock()
	events, dropped := defaultLedger.events, defaultLedger.dropped
	defaultLedger.mu.Unlock()
	if err := WriteJSONL(w, events); err != nil {
		return err
	}
	if dropped > 0 {
		fmt.Fprintf(warn, "%s: the ledger is partial: %d event(s) past its %d-event cap were dropped\n", who, dropped, defaultLedger.limit())
	}
	return nil
}

// ReadJSONL parses a ledger written by WriteJSONL, verifying the schema
// header and validating every event (Event.Validate), so a reader never
// returns an event the writer's contract forbids. Unknown fields and data
// after a line's JSON value are rejected so schema drift fails loudly.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("telemetry: empty ledger (missing schema header)")
	}
	var h header
	if err := decodeLine(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("telemetry: bad schema header: %w", err)
	}
	if h.Schema != SchemaVersion {
		return nil, fmt.Errorf("telemetry: schema %q, want %q", h.Schema, SchemaVersion)
	}
	var events []Event
	for lineNo := 2; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := decodeLine(line, &e); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// decodeLine decodes one ledger line's JSON value into v, rejecting
// unknown fields and anything after the value.
func decodeLine(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("data after the JSON value")
	}
	return nil
}

// ReadJSONLFile reads a ledger file.
func ReadJSONLFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}

// Validate checks one event against the synts-events/v1 contract.
func (e *Event) Validate() error {
	switch e.Kind {
	case KindDecision, KindBarrier, KindEstimate, KindReplay, KindFallback, KindShed, KindBreaker, KindFailover:
	default:
		return fmt.Errorf("unknown event kind %q", e.Kind)
	}
	reasoned := e.Kind == KindFallback || e.Kind == KindShed ||
		e.Kind == KindBreaker || e.Kind == KindFailover
	if reasoned && e.Reason == "" {
		return fmt.Errorf("%s event: empty reason", e.Kind)
	}
	if !reasoned && e.Reason != "" {
		return fmt.Errorf("%s event: unexpected reason %q", e.Kind, e.Reason)
	}
	if (e.Kind == KindShed || e.Kind == KindBreaker || e.Kind == KindFailover) && e.Core != -1 {
		return fmt.Errorf("%s event: core %d, want -1", e.Kind, e.Core)
	}
	if e.Trace != "" {
		traceable := e.Kind == KindShed || e.Kind == KindFallback ||
			e.Kind == KindBreaker || e.Kind == KindFailover
		if !traceable {
			return fmt.Errorf("%s event: unexpected trace %q", e.Kind, e.Trace)
		}
		if len(e.Trace) != 16 {
			return fmt.Errorf("%s event: trace %q is not a 16-hex id", e.Kind, e.Trace)
		}
		for i := 0; i < len(e.Trace); i++ {
			c := e.Trace[i]
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				return fmt.Errorf("%s event: trace %q is not a 16-hex id", e.Kind, e.Trace)
			}
		}
	}
	if e.Interval < 0 {
		return fmt.Errorf("%s event: negative interval %d", e.Kind, e.Interval)
	}
	if e.Core < -1 {
		return fmt.Errorf("%s event: core %d < -1", e.Kind, e.Core)
	}
	if e.Kind == KindBarrier && e.Core != -1 {
		return fmt.Errorf("barrier event: core %d, want -1", e.Core)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"est_err", e.EstErr}, {"act_err", e.ActErr}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("%s event: %s %v outside [0,1]", e.Kind, p.name, p.v)
		}
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"replays", e.Replays}, {"energy", e.Energy}, {"time", e.Time},
		{"instrs", e.Instrs}, {"cycles", e.Cycles},
		{"analytic_cycles", e.AnalyticCycles},
		{"sample_budget", e.SampleBudget}, {"sample_cycles", e.SampleCycles},
		{"interval_cycles", e.IntervalCycles},
	} {
		if p.v < 0 {
			return fmt.Errorf("%s event: negative %s %v", e.Kind, p.name, p.v)
		}
	}
	if e.TSR < 0 || e.TSR > 1 {
		return fmt.Errorf("%s event: tsr %v outside [0,1]", e.Kind, e.TSR)
	}
	return nil
}
