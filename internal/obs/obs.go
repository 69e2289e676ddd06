// Package obs is the repository's instrumentation layer: race-safe atomic
// counters, gauges, streaming histograms with quantile estimates, and
// Region timers that record into a histogram of their name and mark the
// Go execution trace. The registry exports to an end-of-run stats table,
// a machine-readable JSON snapshot and the Prometheus text format.
//
// The package is stdlib-only and built around one invariant: when
// instrumentation is disabled (the default) every call site costs a single
// atomic load and a nil check. The accessors C, G, H and StartRegion
// return nil while disabled, and every method is nil-receiver-safe, so hot
// paths write
//
//	defer obs.StartRegion("trace.interval_build:", stage.String()).End()
//	obs.C("pool.tasks.completed").Add(1)
//
// unconditionally. StartRegion takes a composed name in parts and joins
// them only while enabled, so a disabled call allocates nothing.
// Recording never touches experiment output (stdout), so enabling stats
// cannot perturb the deterministic artefact stream.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates all recording. Off by default; cmd/synts switches it on
// when any of -stats, -stats-json or -trace-out is given.
var enabled atomic.Bool

// Enabled reports whether instrumentation is recording. Call sites that
// need a timestamp (time.Now) before recording should gate on this to keep
// the disabled path free of clock reads.
func Enabled() bool { return enabled.Load() }

// Enable resets the default registry and starts recording, so a snapshot
// covers only the observed run.
func Enable() {
	Default().reset()
	enabled.Store(true)
}

// Disable stops recording. Already-collected data stays readable.
func Disable() { enabled.Store(false) }

// Registry holds one instrumentation namespace. The package-level
// accessors use Default(); tests may construct private registries.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// reset drops all recorded data.
func (r *Registry) reset() {
	r.mu.Lock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.hists = make(map[string]*Histogram)
	r.mu.Unlock()
}

// Counter is a monotonically named atomic counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter; no-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float64 cell.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores the value; no-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(float64bits(v))
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return float64frombits(g.bits.Load())
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram(name)
	r.hists[name] = h
	return h
}

// C returns the named counter of the default registry, or nil while
// instrumentation is disabled.
func C(name string) *Counter {
	if !enabled.Load() {
		return nil
	}
	return defaultRegistry.Counter(name)
}

// G returns the named gauge of the default registry, or nil while disabled.
func G(name string) *Gauge {
	if !enabled.Load() {
		return nil
	}
	return defaultRegistry.Gauge(name)
}

// H returns the named histogram of the default registry, or nil while
// disabled.
func H(name string) *Histogram {
	if !enabled.Load() {
		return nil
	}
	return defaultRegistry.Histogram(name)
}

// sortedNames returns the map keys in deterministic order.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
