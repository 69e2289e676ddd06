package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
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
	Timestamp  string                 `json:"timestamp"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	Meta       *RunMeta               `json:"meta,omitempty"`
	Counters   map[string]int64       `json:"counters"`
	Gauges     map[string]float64     `json:"gauges"`
	Histograms map[string]HistSummary `json:"histograms"`
	Derived    map[string]float64     `json:"derived"`
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
			fmt.Fprintf(w, "  %-42s n=%-8d sum=%-11s p50=%-11s p95=%-11s p99=%-11s max=%s\n",
				name, h.Count, fmtNs(h.Sum), fmtNs(h.P50), fmtNs(h.P95), fmtNs(h.P99), fmtNs(h.Max))
		}
	}
	if len(s.Derived) > 0 {
		fmt.Fprintln(w, "derived:")
		for _, name := range sortedNames(s.Derived) {
			fmt.Fprintf(w, "  %-42s %12.4f\n", name, s.Derived[name])
		}
	}
}

func fmtNs(ns float64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
