package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// HistSummary is the exported digest of one histogram.
type HistSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// SpanSummary aggregates all completed spans sharing a name.
type SpanSummary struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	MinNs   int64 `json:"min_ns"`
	MaxNs   int64 `json:"max_ns"`
}

// RunMeta makes an artifact self-describing: the toolchain, platform and
// run configuration that produced it. The runtime fields are filled by
// SetRunMeta; the application fields (Engine, Seed, Size) are the
// caller's, so every -stats-json snapshot records the exact configuration
// a dashboard needs to compare runs.
type RunMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Engine     string `json:"engine,omitempty"`
	Seed       int64  `json:"seed"`
	Size       int    `json:"size"`
}

// Snapshot is the machine-readable state of a registry, written by
// -stats-json and rendered by the -stats table.
type Snapshot struct {
	Timestamp    string                 `json:"timestamp"`
	GoMaxProcs   int                    `json:"gomaxprocs"`
	Meta         *RunMeta               `json:"meta,omitempty"`
	Counters     map[string]int64       `json:"counters"`
	Gauges       map[string]float64     `json:"gauges"`
	Histograms   map[string]HistSummary `json:"histograms"`
	Spans        map[string]SpanSummary `json:"spans"`
	Derived      map[string]float64     `json:"derived"`
	SpansDropped int64                  `json:"spans_dropped,omitempty"`
}

// SetRunMeta attaches the self-describing meta block (see RunMeta); the
// runtime fields are filled automatically.
func (s *Snapshot) SetRunMeta(engine string, seed int64, size int) {
	s.Meta = &RunMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Engine:     engine,
		Seed:       seed,
		Size:       size,
	}
}

// Snapshot digests the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSummary{},
		Spans:      map[string]SpanSummary{},
		Derived:    map[string]float64{},
	}
	r.mu.RLock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistSummary{
			Count: h.Count(),
			Sum:   h.Sum(),
			Min:   h.Min(),
			Max:   h.Max(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		}
	}
	r.mu.RUnlock()
	recs, dropped := r.SpanRecords()
	s.SpansDropped = dropped
	for _, rec := range recs {
		agg, ok := s.Spans[rec.Name]
		if !ok {
			agg = SpanSummary{MinNs: rec.DurNs, MaxNs: rec.DurNs}
		}
		agg.Count++
		agg.TotalNs += rec.DurNs
		if rec.DurNs < agg.MinNs {
			agg.MinNs = rec.DurNs
		}
		if rec.DurNs > agg.MaxNs {
			agg.MaxNs = rec.DurNs
		}
		s.Spans[rec.Name] = agg
	}
	return s
}

// AddDerived records a computed metric (e.g. a cache hit ratio) on the
// snapshot so downstream schema checks can rely on it by name.
func (s *Snapshot) AddDerived(name string, v float64) { s.Derived[name] = v }

// Ratio derives a hit-ratio-style fraction from counters: num/(sum of
// denoms); 0 when the denominator is 0.
func (s *Snapshot) Ratio(num string, denoms ...string) float64 {
	var d int64
	for _, name := range denoms {
		d += s.Counters[name]
	}
	if d == 0 {
		return 0
	}
	return float64(s.Counters[num]) / float64(d)
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteTable renders the snapshot as a human-readable end-of-run report
// (the -stats output, printed to stderr so stdout artefacts stay
// byte-identical).
func (s *Snapshot) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "--- run stats (GOMAXPROCS=%d) ---\n", s.GoMaxProcs)
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range sortedNames(s.Counters) {
			fmt.Fprintf(w, "  %-42s %12d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, name := range sortedNames(s.Gauges) {
			fmt.Fprintf(w, "  %-42s %12.4g\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms (ns):")
		for _, name := range sortedNames(s.Histograms) {
			h := s.Histograms[name]
			fmt.Fprintf(w, "  %-42s n=%-8d p50=%-11s p95=%-11s p99=%-11s max=%s\n",
				name, h.Count, fmtNs(h.P50), fmtNs(h.P95), fmtNs(h.P99), fmtNs(h.Max))
		}
	}
	if len(s.Spans) > 0 {
		fmt.Fprintln(w, "spans:")
		for _, name := range sortedNames(s.Spans) {
			sp := s.Spans[name]
			fmt.Fprintf(w, "  %-42s n=%-8d total=%-11s mean=%s\n",
				name, sp.Count, fmtNs(float64(sp.TotalNs)), fmtNs(float64(sp.TotalNs)/float64(sp.Count)))
		}
	}
	if len(s.Derived) > 0 {
		fmt.Fprintln(w, "derived:")
		for _, name := range sortedNames(s.Derived) {
			fmt.Fprintf(w, "  %-42s %12.4f\n", name, s.Derived[name])
		}
	}
	if s.SpansDropped > 0 {
		fmt.Fprintf(w, "spans dropped (store cap): %d\n", s.SpansDropped)
	}
}

func fmtNs(ns float64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// TraceEvent is one Chrome trace-event ("X" = complete event with
// duration). The JSON array format loads directly in chrome://tracing and
// Perfetto.
type TraceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds since run start
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// ChromeTraceEvents converts the registry's span records into trace
// events. Spans with an explicit TID (pool workers) keep their row.
// Unattributed spans are assigned by goroutine: a span recorded on the
// same goroutine as an explicit-TID span lands on that worker's row (the
// smallest time-enclosing one when the goroutine carried several tasks);
// goroutines that never carried an explicit row — the main goroutine,
// HTTP handlers under `serve`, any concurrency outside internal/pool —
// each get a fresh row reserved through NextTIDBlock, in order of their
// first span start, so concurrent non-pool work never collapses onto one
// misleading row.
func (r *Registry) ChromeTraceEvents() []TraceEvent {
	recs, _ := r.SpanRecords()
	type holder struct {
		start, end int64
		tid        int
	}
	explicit := make(map[int64][]holder)
	for _, rec := range recs {
		if rec.TID >= 0 && rec.Gid != 0 {
			explicit[rec.Gid] = append(explicit[rec.Gid],
				holder{rec.StartNs, rec.StartNs + rec.DurNs, rec.TID})
		}
	}
	// Reserve rows for goroutines with no explicit-TID span, in first-
	// start order (deterministic for a deterministic span set). Going
	// through NextTIDBlock keeps the rows disjoint from every pool's.
	orphanRow := make(map[int64]int)
	ordered := append([]SpanRecord(nil), recs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].StartNs < ordered[j].StartNs })
	for _, rec := range ordered {
		if rec.TID >= 0 || rec.Gid == 0 {
			continue
		}
		if _, ok := explicit[rec.Gid]; ok {
			continue
		}
		if _, ok := orphanRow[rec.Gid]; !ok {
			orphanRow[rec.Gid] = r.NextTIDBlock(1)
		}
	}
	events := make([]TraceEvent, 0, len(recs))
	for _, rec := range recs {
		tid := rec.TID
		if tid < 0 {
			tid = 0
			if hs, ok := explicit[rec.Gid]; ok {
				// Same goroutine as a worker: the smallest task span
				// enclosing this one in time is the task it ran inside.
				best := int64(-1)
				end := rec.StartNs + rec.DurNs
				for _, h := range hs {
					if h.start <= rec.StartNs && h.end >= end {
						if d := h.end - h.start; best < 0 || d < best {
							best, tid = d, h.tid
						}
					}
				}
				if best < 0 {
					tid = hs[0].tid
				}
			} else if row, ok := orphanRow[rec.Gid]; ok {
				tid = row
			}
		}
		events = append(events, TraceEvent{
			Name: rec.Name,
			Ph:   "X",
			Ts:   float64(rec.StartNs) / 1e3,
			Dur:  float64(rec.DurNs) / 1e3,
			Pid:  1,
			Tid:  tid,
		})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		return events[i].Dur > events[j].Dur
	})
	return events
}

// WriteChromeTrace writes the span tree as Chrome trace-event JSON.
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.ChromeTraceEvents())
}
