package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fleet-wide distributed tracing.
//
// A TraceSpan is one hop-scoped timing record tied to a logical request
// (a trace). Unlike the in-process Span DAG (span.go), whose IDs are
// process-local atomics, trace spans carry content-derived 64-bit IDs:
// the trace ID is the FNV-1a digest of the request body (unique per
// request in a seeded loadgen stream, reproducible run-to-run) and every
// span ID is derived by hashing (trace, parent, name, index). Two runs of
// the same seeded stream therefore produce the same span *structure* —
// only the timing fields differ — which is what lets obscheck and CI
// compare traces across runs and shard counts.
//
// Each process (loadgen, router, daemon) collects its own spans and
// writes a synts-trace/v1 JSONL artifact into -trace-dir at shutdown;
// internal/sched stitches the per-process artifacts into fleet-wide
// trees. The collector follows the package invariant: disabled (the
// default) costs one atomic load per call site, and recording never
// touches experiment output.

// TraceSchema is the artifact schema tag written as the JSONL header.
const TraceSchema = "synts-trace/v1"

// Span names. The producer vocabulary is closed so obscheck can validate
// artifacts structurally: one client.request root per trace, client
// attempt/backoff lanes under it, route.request → route.hop chains at the
// router, and service.request → service.queue/service.solve at a daemon.
const (
	TSClientRequest  = "client.request"
	TSClientAttempt  = "client.attempt"
	TSClientBackoff  = "client.backoff"
	TSRouteRequest   = "route.request"
	TSRouteHop       = "route.hop"
	TSServiceRequest = "service.request"
	TSServiceQueue   = "service.queue"
	TSServiceSolve   = "service.solve"
)

// Hop kinds. first/retry/hedge/failover travel on the wire (X-Synts-Hop)
// and describe how a request reached a process; the rest are span-local.
const (
	HopRoot     = "root"
	HopFirst    = "first"
	HopRetry    = "retry"
	HopHedge    = "hedge"
	HopFailover = "failover"
	HopSkip     = "skip"
	HopWait     = "retry-wait"
	HopQueue    = "queue"
	HopSolve    = "solve"
)

// traceSpanKinds maps each span name to its allowed hop kinds.
var traceSpanKinds = map[string]map[string]bool{
	TSClientRequest:  {HopRoot: true},
	TSClientAttempt:  {HopFirst: true, HopRetry: true, HopHedge: true, HopFailover: true},
	TSClientBackoff:  {HopWait: true},
	TSRouteRequest:   {HopFirst: true, HopRetry: true, HopHedge: true, HopFailover: true},
	TSRouteHop:       {HopFirst: true, HopFailover: true, HopSkip: true},
	TSServiceRequest: {HopFirst: true, HopRetry: true, HopHedge: true, HopFailover: true},
	TSServiceQueue:   {HopQueue: true},
	TSServiceSolve:   {HopSolve: true},
}

// TraceSpan is one completed hop-scoped span of a distributed trace.
// Trace/Span/Parent are 16-hex-digit content-derived IDs; StartNs is
// relative to the collecting process's trace epoch (clocks are aligned at
// stitch time by anchoring child processes to the parent span's envelope).
type TraceSpan struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Proc    string `json:"proc"`
	Lane    int    `json:"lane,omitempty"`
	Backend string `json:"backend,omitempty"`
	Detail  string `json:"detail,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// maxTraceSpans bounds the collector like maxSpans bounds the span store.
const maxTraceSpans = 1 << 20

// traceCollector is the process-wide trace-span store, separate from the
// Registry so batch instrumentation (-stats) and fleet tracing
// (-trace-dir) enable independently.
var traceCollector struct {
	mu      sync.Mutex
	on      bool
	proc    string
	epoch   time.Time
	spans   []TraceSpan
	dropped int64
}

// traceEnabled gates the hot path with a single atomic load.
var traceEnabled atomic.Bool

// TraceEnable resets the collector and starts recording under the given
// process name (stamped on every span, e.g. "loadgen", "route-9200").
func TraceEnable(proc string) {
	traceCollector.mu.Lock()
	traceCollector.on = true
	traceCollector.proc = proc
	traceCollector.epoch = time.Now()
	traceCollector.spans = nil
	traceCollector.dropped = 0
	traceCollector.mu.Unlock()
	traceEnabled.Store(true)
}

// TraceDisable stops recording; collected spans stay readable.
func TraceDisable() { traceEnabled.Store(false) }

// TraceEnabled reports whether trace-span recording is on. Producers gate
// clock reads and ID derivation on it so disabled tracing is inert.
func TraceEnabled() bool { return traceEnabled.Load() }

// TraceRecord appends a span, stamping Proc and converting the absolute
// start/end times to epoch-relative nanoseconds. No-op while disabled.
func TraceRecord(sp TraceSpan, start, end time.Time) {
	if !traceEnabled.Load() {
		return
	}
	traceCollector.mu.Lock()
	defer traceCollector.mu.Unlock()
	if !traceCollector.on {
		return
	}
	sp.Proc = traceCollector.proc
	sp.StartNs = start.Sub(traceCollector.epoch).Nanoseconds()
	if sp.StartNs < 0 {
		sp.StartNs = 0
	}
	sp.DurNs = end.Sub(start).Nanoseconds()
	if sp.DurNs < 0 {
		sp.DurNs = 0
	}
	if len(traceCollector.spans) >= maxTraceSpans {
		traceCollector.dropped++
		return
	}
	traceCollector.spans = append(traceCollector.spans, sp)
}

// TraceSpans returns a copy of the collected spans and the dropped count.
func TraceSpans() ([]TraceSpan, int64) {
	traceCollector.mu.Lock()
	defer traceCollector.mu.Unlock()
	out := make([]TraceSpan, len(traceCollector.spans))
	copy(out, traceCollector.spans)
	return out, traceCollector.dropped
}

// TraceHex renders a content-derived trace/span ID as 16 lowercase hex
// digits (the wire and artifact form).
func TraceHex(id uint64) string { return fmt.Sprintf("%016x", id) }

// TraceDerive deterministically derives a span ID from its position in
// the trace: FNV-1a over (trace, parent, name, idx). Derivation instead
// of allocation is what makes trace structure reproducible run-to-run.
func TraceDerive(trace, parent uint64, name string, idx int) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(trace)
	mix(parent)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	mix(uint64(idx))
	if h == 0 {
		h = 1
	}
	return h
}

// SortTraceSpans puts spans into canonical artifact order: a total order
// over the deterministic fields first (so one run's artifact is
// byte-identical at any -j / shard count), timing as the final tiebreak.
func SortTraceSpans(spans []TraceSpan) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Span != b.Span {
			return a.Span < b.Span
		}
		if a.Parent != b.Parent {
			return a.Parent < b.Parent
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Lane != b.Lane {
			return a.Lane < b.Lane
		}
		if a.Backend != b.Backend {
			return a.Backend < b.Backend
		}
		if a.Detail != b.Detail {
			return a.Detail < b.Detail
		}
		if a.StartNs != b.StartNs {
			return a.StartNs < b.StartNs
		}
		return a.DurNs < b.DurNs
	})
}

// WriteTraceJSONL writes a synts-trace/v1 artifact: a schema header line
// followed by one span per line in canonical order.
func WriteTraceJSONL(w io.Writer, spans []TraceSpan) error {
	sorted := make([]TraceSpan, len(spans))
	copy(sorted, spans)
	SortTraceSpans(sorted)
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "{\"schema\":%q}\n", TraceSchema); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i := range sorted {
		if err := enc.Encode(&sorted[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteTraceFile writes the collector's spans to path (tmp-then-rename).
func WriteTraceFile(path string) error {
	spans, _ := TraceSpans()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteTraceJSONL(f, spans); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadTraceJSONL parses a synts-trace/v1 artifact, rejecting unknown
// schemas, unknown span fields and spans that fail Validate, so every
// reader sees only spans inside the closed vocabulary.
func ReadTraceJSONL(r io.Reader) ([]TraceSpan, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace artifact: empty file (missing schema header)")
	}
	var hdr struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("trace artifact: bad schema header: %w", err)
	}
	if hdr.Schema != TraceSchema {
		return nil, fmt.Errorf("trace artifact: schema %q, want %q", hdr.Schema, TraceSchema)
	}
	var spans []TraceSpan
	line := 1
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(text))
		dec.DisallowUnknownFields()
		var sp TraceSpan
		if err := dec.Decode(&sp); err != nil {
			return nil, fmt.Errorf("trace artifact line %d: %w", line, err)
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("trace artifact line %d: %w", line, err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}

// ReadTraceFile reads one synts-trace/v1 artifact from disk.
func ReadTraceFile(path string) ([]TraceSpan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spans, err := ReadTraceJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spans, nil
}

// isHex16 reports whether s is exactly 16 lowercase hex digits.
func isHex16(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Validate checks one span against the closed producer vocabulary.
func (sp *TraceSpan) Validate() error {
	if !isHex16(sp.Trace) {
		return fmt.Errorf("trace span: bad trace id %q", sp.Trace)
	}
	if !isHex16(sp.Span) {
		return fmt.Errorf("trace span %s: bad span id %q", sp.Trace, sp.Span)
	}
	if sp.Parent != "" && !isHex16(sp.Parent) {
		return fmt.Errorf("trace span %s/%s: bad parent id %q", sp.Trace, sp.Span, sp.Parent)
	}
	kinds, ok := traceSpanKinds[sp.Name]
	if !ok {
		return fmt.Errorf("trace span %s/%s: unknown name %q", sp.Trace, sp.Span, sp.Name)
	}
	if !kinds[sp.Kind] {
		return fmt.Errorf("trace span %s/%s: kind %q not allowed for %q", sp.Trace, sp.Span, sp.Kind, sp.Name)
	}
	if sp.Proc == "" {
		return fmt.Errorf("trace span %s/%s: empty proc", sp.Trace, sp.Span)
	}
	if sp.Lane < 0 {
		return fmt.Errorf("trace span %s/%s: negative lane %d", sp.Trace, sp.Span, sp.Lane)
	}
	if sp.StartNs < 0 || sp.DurNs < 0 {
		return fmt.Errorf("trace span %s/%s: negative timing (start %d, dur %d)", sp.Trace, sp.Span, sp.StartNs, sp.DurNs)
	}
	return nil
}

// TraceCanon renders the structural projection of a span set: canonical
// order, timing stripped. Two same-seed runs of a repeat-free stream
// produce byte-identical projections even though wall timing differs —
// this is the determinism contract `synts trace -canon` and CI compare.
func TraceCanon(spans []TraceSpan) []byte {
	sorted := make([]TraceSpan, len(spans))
	copy(sorted, spans)
	SortTraceSpans(sorted)
	var b strings.Builder
	for i := range sorted {
		sp := &sorted[i]
		fmt.Fprintf(&b, "%s %s %s %s %s lane=%d proc=%s backend=%s detail=%s\n",
			sp.Trace, sp.Span, orDash(sp.Parent), sp.Name, sp.Kind, sp.Lane, sp.Proc, sp.Backend, sp.Detail)
	}
	return []byte(b.String())
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
