// Package simprof is the simulation-domain attribution profiler: it
// attributes *simulated* cycles, Razor replay errors and modelled energy
// to the (kernel, core, barrier interval, opcode, pipe stage) that
// produced them, inside the simulator's own hot paths. Where runtime/pprof
// profiles the Go process, simprof profiles the simulated machine — the
// paper's per-thread heterogeneity in sensitized delay becomes a
// flamegraph instead of an aggregate error rate.
//
// The package is stdlib-only and race-safe. Like internal/obs and
// internal/telemetry, it is a strict no-op while disabled: Record takes
// its key and values by value behind one atomic gate, so the disabled
// path is 0 allocs/op (benchmarked as simprof/RecordDisabled).
//
// Determinism: contributions are kept per key and summed in a canonical
// order at snapshot time, never in arrival order, so float accumulation
// is schedule-independent and every export surface (pprof bytes, folded
// stacks) is byte-identical at any -j.
package simprof

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Phases name the simulator activity that produced a sample. They form
// the second frame of the synthetic stack kernel → phase → op → stage.
const (
	PhaseIssue    = "issue"    // gate-eval work in trace.DelayTrace
	PhaseMem      = "mem"      // cache-miss stall cycles in cpu.MeasureCPI
	PhaseSampling = "sampling" // online estimator granule replays
	PhaseReplay   = "replay"   // full-interval Razor replay at the chosen TSR
	PhaseJoint    = "joint"    // multi-stage joint Razor study
)

// Synthetic op frames for work that has no single opcode.
const (
	OpStall = "(stall)" // CPI base stall cycles folded into a replay
	OpChaos = "(chaos)" // replay errors injected by the faults harness
)

// Energy model constants, in picojoules. These are deliberately simple
// per-event constants (the paper's alpha*V^2 scaling at V = V_nom = 1);
// DESIGN.md documents the mapping. They exist so the energy_pj sample
// type has defined, reproducible semantics — not to be calibrated.
const (
	EnergyPerGateEvalPJ    = 0.001 // switching proxy per gate evaluation
	EnergyPerStallCyclePJ  = 0.5   // per memory/CPI stall cycle
	EnergyPerReplayCyclePJ = 1.0   // per issue or recovery cycle at V_nom
)

// Key identifies one attribution bucket.
type Key struct {
	Kernel   string // benchmark kernel name (e.g. "radix")
	Core     int    // simulated core / thread id
	Interval int    // barrier interval index
	Phase    string // one of the Phase* constants
	Op       string // isa.Op mnemonic or a synthetic "(...)" frame
	Stage    string // pipe stage name (Decode, SimpleALU, ComplexALU)
}

// Values is one contribution to a bucket. All fields are additive.
type Values struct {
	Cycles float64 // simulated cycles
	Errors int64   // Razor timing errors (replays)
	Energy float64 // modelled energy, picojoules
	Instrs int64   // instructions attributed (denominator for rates)
}

// Entry is a summed bucket, as returned by Snapshot.
type Entry struct {
	Key
	Values
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	store   map[Key][]Values
)

// Enabled reports whether the profiler is recording.
func Enabled() bool { return enabled.Load() }

// Enable clears any prior samples and starts recording.
func Enable() {
	mu.Lock()
	store = make(map[Key][]Values)
	mu.Unlock()
	enabled.Store(true)
}

// Disable stops recording. Samples already recorded stay readable.
func Disable() { enabled.Store(false) }

// Record adds one contribution to a bucket. It is safe for concurrent
// use and a zero-alloc no-op while the profiler is disabled. Callers
// should batch per-instruction work into one Values per (key) flush —
// Record takes a global lock.
func Record(k Key, v Values) {
	if !enabled.Load() {
		return
	}
	mu.Lock()
	if store == nil {
		store = make(map[Key][]Values)
	}
	store[k] = append(store[k], v)
	mu.Unlock()
}

// valuesLess orders contributions canonically so per-key float sums are
// independent of recording order (and therefore of -j scheduling).
func valuesLess(a, b Values) bool {
	if a.Cycles != b.Cycles {
		return a.Cycles < b.Cycles
	}
	if a.Errors != b.Errors {
		return a.Errors < b.Errors
	}
	if a.Energy != b.Energy {
		return a.Energy < b.Energy
	}
	return a.Instrs < b.Instrs
}

// keyLess is the canonical bucket order used by every export surface.
func keyLess(a, b Key) bool {
	if a.Kernel != b.Kernel {
		return a.Kernel < b.Kernel
	}
	if a.Core != b.Core {
		return a.Core < b.Core
	}
	if a.Interval != b.Interval {
		return a.Interval < b.Interval
	}
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	return a.Stage < b.Stage
}

// Snapshot sums every bucket's contributions in canonical order and
// returns the entries sorted by key. The result is deterministic for a
// given multiset of Record calls regardless of their arrival order.
func Snapshot() []Entry {
	mu.Lock()
	keys := make([]Key, 0, len(store))
	lists := make([][]Values, 0, len(store))
	for k, l := range store {
		keys = append(keys, k)
		lists = append(lists, append([]Values(nil), l...))
	}
	mu.Unlock()

	entries := make([]Entry, len(keys))
	for i, k := range keys {
		l := lists[i]
		sort.SliceStable(l, func(a, b int) bool { return valuesLess(l[a], l[b]) })
		var v Values
		for _, c := range l {
			v.Cycles += c.Cycles
			v.Errors += c.Errors
			v.Energy += c.Energy
			v.Instrs += c.Instrs
		}
		entries[i] = Entry{Key: k, Values: v}
	}
	sort.Slice(entries, func(a, b int) bool { return keyLess(entries[a].Key, entries[b].Key) })
	return entries
}

// coreFrame renders the per-(core, interval) stack frame.
func coreFrame(core, interval int) string {
	return fmt.Sprintf("c%d.iv%d", core, interval)
}

// Phases returns the known phase names in canonical order.
func Phases() []string {
	return []string{PhaseIssue, PhaseJoint, PhaseMem, PhaseReplay, PhaseSampling}
}
