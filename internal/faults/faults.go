// Package faults is the repository's deterministic fault-injection layer:
// a seeded chaos harness that can corrupt or drop online sampling
// estimates, perturb Razor replay error counts, panic worker pool tasks
// and slow solver-service requests, so the pipeline's failure handling
// (panic isolation in internal/pool, the estimate guard band in
// core.SolveOnline, the daemon's shedding) can be exercised on demand
// instead of waiting for real faults.
//
// The package follows the obs/telemetry discipline: injection is gated on
// one atomic load, every hook is safe (and a no-op) while disabled, and
// the disabled hot path performs zero allocations (BenchmarkEstimateDisabled,
// pinned by TestDisabledEstimateZeroAllocs). Decisions are pure
// functions of the configured seed and the hook's arguments — never of
// wall-clock time, goroutine scheduling, or call order — so a chaos run is
// reproducible: the same seed corrupts the same estimates regardless of
// -j.
//
// Spec grammar (the -chaos flag):
//
//	spec    := "off" | class[=rate] ("," class[=rate])*
//	class   := sample-noise | sample-drop | sample-nan |
//	           replay-perturb | task-panic | req-slow
//	rate    := float in (0, 1]   (default per class, see DefaultRate)
//
// e.g. `-chaos sample-noise,task-panic` or `-chaos sample-nan=0.5`. Each
// command accepts only the classes whose hooks it reaches (Enable's
// accept set): a batch run has no request to slow, and a daemon samples
// no estimates and replays nothing.
package faults

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Fault classes.
const (
	// SampleNoise adds a large positive offset to an online sampling
	// estimate, pushing it out of the plausible range (the sensor still
	// reports, but reports garbage).
	SampleNoise = "sample-noise"
	// SampleDrop models a lost sampling measurement: the estimate channel
	// delivers the no-measurement sentinel -1 instead of a rate.
	SampleDrop = "sample-drop"
	// SampleNaN corrupts an estimate into NaN (a divide-by-zero or
	// uninitialised counter in the sampling hardware).
	SampleNaN = "sample-nan"
	// ReplayPerturb inflates a Razor replay's observed error count (flaky
	// shadow-latch comparator), consistently adjusting its cycle cost.
	ReplayPerturb = "replay-perturb"
	// TaskPanic panics a worker-pool task at start; the pool converts the
	// panic into an error (and retries injected panics, which fire before
	// the task body runs and so are side-effect free).
	TaskPanic = "task-panic"
	// ReqSlow makes a solver-service request's solve take ReqSlowDuration
	// longer on its solver worker (a degraded or contended solver). The
	// penalty consumes real solver capacity, so injected slowness surfaces
	// as queue depth, latency and ultimately queue-full sheds — the whole
	// overload path, exercised deterministically.
	ReqSlow = "req-slow"
)

// DefaultRate is the per-hook injection probability used when the spec
// gives a class without an explicit rate.
func DefaultRate(class string) float64 {
	switch class {
	case TaskPanic:
		return 0.05 // tasks are plentiful; a few percent exercises recovery
	default:
		return 0.25 // estimates are few; corrupt a visible fraction
	}
}

// ReqSlowDuration is how long an injected request slowdown delays a
// solver-service request. It is fixed (not shaped by hash bits) so
// latency assertions in tests and CI have a known floor.
const ReqSlowDuration = 25 * time.Millisecond

// taskPanicRetries is the per-task budget of consecutive injected panics
// the pool will retry before giving up; exported for the pool via
// TaskPanicRetryBudget. With the default 5% rate the chance of exhausting
// it is (0.05)^6 ≈ 1.6e-8 per task, so chaos smoke runs complete.
const taskPanicRetries = 5

// TaskPanicRetryBudget returns how many injected panics per task the pool
// should absorb by retrying before surfacing the panic as an error.
func TaskPanicRetryBudget() int { return taskPanicRetries }

// config is an immutable parsed spec; the active one is swapped
// atomically so hooks never lock.
type config struct {
	seed  int64
	rates map[string]float64 // class -> rate; absent = class inactive
}

var (
	enabled atomic.Bool
	current atomic.Pointer[config]
	taskSeq atomic.Uint64 // process-wide task id source for task hooks
)

// Enabled reports whether fault injection is active: one atomic load, the
// only cost every hook pays while the injector is off.
func Enabled() bool { return enabled.Load() }

// Enable parses a spec and starts injecting. "off" (or "") disables. A
// class outside accept is refused, with an error that names accept.
func Enable(spec string, seed int64, accept []string) error {
	c, err := parseSpec(spec, seed, accept)
	if err != nil {
		return err
	}
	if c == nil {
		Disable()
		return nil
	}
	current.Store(c)
	taskSeq.Store(0)
	enabled.Store(true)
	return nil
}

// Disable stops all injection.
func Disable() { enabled.Store(false) }

// parseSpec validates the grammar against the accepted classes; a nil
// config means "off".
func parseSpec(spec string, seed int64, accept []string) (*config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return nil, nil
	}
	rates := map[string]float64{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("faults: empty class in spec %q", spec)
		}
		class, rateStr, hasRate := strings.Cut(part, "=")
		if !slices.Contains(accept, class) {
			return nil, fmt.Errorf("faults: class %q not accepted (want one of %s)",
				class, strings.Join(accept, ", "))
		}
		rate := DefaultRate(class)
		if hasRate {
			r, err := strconv.ParseFloat(rateStr, 64)
			if err != nil || !(r > 0 && r <= 1) {
				return nil, fmt.Errorf("faults: rate %q for %s: want a float in (0,1]", rateStr, class)
			}
			rate = r
		}
		if _, dup := rates[class]; dup {
			return nil, fmt.Errorf("faults: class %s given twice", class)
		}
		rates[class] = rate
	}
	return &config{seed: seed, rates: rates}, nil
}

// hash mixes the seed, a class tag and the hook arguments into a uniform
// uint64 (splitmix64 finalizer). Decisions derived from it depend only on
// the inputs, never on execution order.
func (c *config) hash(class string, args ...uint64) uint64 {
	x := uint64(c.seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(class); i++ {
		x = (x ^ uint64(class[i])) * 0x100000001b3
	}
	for _, a := range args {
		x ^= a
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// fire reports whether a hook with the given arguments injects class, and
// returns extra hash bits for shaping the corruption.
func (c *config) fire(class string, args ...uint64) (bool, uint64) {
	rate, ok := c.rates[class]
	if !ok {
		return false, 0
	}
	h := c.hash(class, args...)
	return unit(h) < rate, c.hash(class+"/shape", args...)
}

// Estimate passes one online sampling estimate (thread, TSR level,
// measured rate) through the injector. With no sample-* class active (or
// the injector disabled) it returns v unchanged. Corruptions are exactly
// the implausibilities the SolveOnline guard band screens for: NaN, the
// -1 lost-measurement sentinel, and rates far outside the physical range.
func Estimate(thread, level int, v float64) float64 {
	if !enabled.Load() {
		return v
	}
	c := current.Load()
	if c == nil {
		return v
	}
	args := []uint64{uint64(thread)<<32 | uint64(uint32(level)), math.Float64bits(v)}
	if on, _ := c.fire(SampleNaN, args...); on {
		return math.NaN()
	}
	if on, _ := c.fire(SampleDrop, args...); on {
		return -1 // lost measurement
	}
	if on, shape := c.fire(SampleNoise, args...); on {
		return v + 0.5 + unit(shape) // far above any physical error rate
	}
	return v
}

// ReplayErrors perturbs a Razor replay's observed error count
// (replay-perturb): the flaky comparator reports up to the whole window
// as errored. Returns the original count when the class is inactive. The
// result never exceeds instrs, so downstream rates stay in [0,1].
func ReplayErrors(errors, instrs int, tclkBits uint64) int {
	if !enabled.Load() || instrs == 0 {
		return errors
	}
	c := current.Load()
	if c == nil {
		return errors
	}
	on, shape := c.fire(ReplayPerturb, uint64(errors)<<32|uint64(uint32(instrs)), tclkBits)
	if !on {
		return errors
	}
	extra := 1 + int(unit(shape)*float64(instrs-errors))
	if errors+extra > instrs {
		return instrs
	}
	return errors + extra
}

// RequestDelay returns how long the solver service should slow one
// request's solve (req-slow): ReqSlowDuration when the class fires for
// this request, zero otherwise. digest is the request's content digest,
// so the same request stream slows the same requests at any -j and on
// every replay.
func RequestDelay(digest uint64) time.Duration {
	if !enabled.Load() {
		return 0
	}
	c := current.Load()
	if c == nil {
		return 0
	}
	if on, _ := c.fire(ReqSlow, digest); on {
		return ReqSlowDuration
	}
	return 0
}

// InjectedPanic is the value an injected task panic carries; the pool
// recognises it (via IsInjectedPanic) and retries the task, since the
// panic fired before the task body ran.
type InjectedPanic struct {
	Task    uint64
	Attempt int
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic (task %d, attempt %d)", p.Task, p.Attempt)
}

// IsInjectedPanic reports whether a recovered panic value came from
// TaskStart.
func IsInjectedPanic(v any) bool {
	_, ok := v.(InjectedPanic)
	return ok
}

// NextTaskID reserves a task id for the task-start hooks. The pool calls
// it once per task (only while injection is enabled) and passes the id to
// TaskStart on every attempt, so retry decisions are per-task
// deterministic.
func NextTaskID() uint64 { return taskSeq.Add(1) }

// TaskStart runs the task-start fault hook for one attempt of a task:
// task-panic panics with an InjectedPanic. Callers must invoke it before the task body so an
// injected panic never interrupts real work (which makes retrying safe
// even for non-idempotent tasks).
func TaskStart(task uint64, attempt int) {
	if !enabled.Load() {
		return
	}
	c := current.Load()
	if c == nil {
		return
	}
	if on, _ := c.fire(TaskPanic, task, uint64(uint32(attempt))); on {
		panic(InjectedPanic{Task: task, Attempt: attempt})
	}
}
