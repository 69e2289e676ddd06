// Package faults is the repository's deterministic fault-injection layer:
// a seeded chaos harness that can corrupt or drop online sampling
// estimates, perturb Razor replay error counts, and panic or stall worker
// pool tasks, so the pipeline's failure handling (panic isolation in
// internal/pool, the estimate guard band in core.SolveOnline) can be
// exercised on demand instead of waiting for real faults.
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
//	           replay-perturb | task-panic | task-stall |
//	           ckpt-write-fail | ledger-spill-torn |
//	           req-slow | req-drop |
//	           backend-down | backend-flap | resp-torn | net-slow
//	rate    := float in (0, 1]   (default per class, see DefaultRate)
//
// e.g. `-chaos sample-noise,task-panic` or `-chaos sample-nan=0.5`.
package faults

import (
	"fmt"
	"math"
	"sort"
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
	// TaskStall sleeps a worker-pool task at start for StallDuration,
	// exercising the pool's stall watchdog.
	TaskStall = "task-stall"
	// CkptWriteFail fails a checkpoint save after the .tmp file is
	// written but before the atomic rename — the disk-full / yanked-volume
	// case the tmp-then-rename protocol exists for. The run must continue
	// (the checkpoint is just lost) and the stray .tmp must be ignored by
	// validation and resume.
	CkptWriteFail = "ckpt-write-fail"
	// LedgerSpillTorn truncates a telemetry ledger spill line mid-record
	// (torn write: the process or disk died between write and flush). The
	// spill-merge path must skip the torn record, count it, and keep every
	// intact one.
	LedgerSpillTorn = "ledger-spill-torn"
	// ReqSlow makes a solver-service request's solve take ReqSlowDuration
	// longer on its shard worker (a degraded or contended solver). The
	// penalty consumes real shard capacity, so injected slowness surfaces
	// as queue depth, latency and ultimately queue-full sheds — the whole
	// overload path, exercised deterministically.
	ReqSlow = "req-slow"
	// ReqDrop fails a solver-service request after admission (a lost
	// response or a worker crash from the client's point of view); the
	// service answers 503 and records a fallback event for the request.
	ReqDrop = "req-drop"
	// BackendDown takes a fleet backend offline for whole
	// BackendDownWindow epochs (connection refused from the router's point
	// of view): the machine rebooted, the process was OOM-killed. Keyed on
	// (backend, epoch), so the outage has a deterministic victim and a
	// bounded, visible duration.
	BackendDown = "backend-down"
	// BackendFlap inverts individual /readyz probe results (an oscillating
	// readiness endpoint: a backend stuck in a crash loop or a flaky
	// health check). Keyed on (backend, probe tick).
	BackendFlap = "backend-flap"
	// RespTorn truncates a proxied response body mid-write (the router or
	// backend died between write and flush — the network twin of
	// ledger-spill-torn). The client must treat the torn body as a failed
	// attempt and retry, never parse a prefix.
	RespTorn = "resp-torn"
	// NetSlow adds NetSlowDuration of latency to one router→backend hop (a
	// congested link, a bad switch port). Keyed on (backend, request
	// digest).
	NetSlow = "net-slow"
)

// Classes lists every fault class, in spec order.
func Classes() []string {
	return []string{SampleNoise, SampleDrop, SampleNaN, ReplayPerturb, TaskPanic, TaskStall, CkptWriteFail, LedgerSpillTorn, ReqSlow, ReqDrop, BackendDown, BackendFlap, RespTorn, NetSlow}
}

// DefaultRate is the per-hook injection probability used when the spec
// gives a class without an explicit rate.
func DefaultRate(class string) float64 {
	switch class {
	case TaskPanic, TaskStall:
		return 0.05 // tasks are plentiful; a few percent exercises recovery
	default:
		return 0.25 // estimates are few; corrupt a visible fraction
	}
}

// StallDuration is how long an injected task stall sleeps.
const StallDuration = 10 * time.Millisecond

// ReqSlowDuration is how long an injected request slowdown delays a
// solver-service request. It is fixed (not shaped by hash bits) so
// latency assertions in tests and CI have a known floor.
const ReqSlowDuration = 25 * time.Millisecond

// BackendDownWindow is the epoch length of an injected backend outage:
// the router quantises elapsed time by it and asks BackendDownAt per
// (backend, epoch), so an outage lasts whole windows — long enough to
// trip a breaker, short enough that the drill sees the recovery too.
const BackendDownWindow = 5 * time.Second

// NetSlowDuration is the latency an injected slow hop adds to one
// router→backend attempt. Fixed, like ReqSlowDuration, so hedge and
// timeout assertions have a known floor.
const NetSlowDuration = 20 * time.Millisecond

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
	spec  string             // canonical spec string, for logging
}

var (
	enabled atomic.Bool
	current atomic.Pointer[config]
	taskSeq atomic.Uint64 // process-wide task id source for task hooks
)

// Enabled reports whether fault injection is active: one atomic load, the
// only cost every hook pays while the injector is off.
func Enabled() bool { return enabled.Load() }

// Active reports whether a specific class is being injected.
func Active(class string) bool {
	if !enabled.Load() {
		return false
	}
	c := current.Load()
	if c == nil {
		return false
	}
	_, ok := c.rates[class]
	return ok
}

// Spec returns the canonical form of the active spec ("" while disabled).
func Spec() string {
	if !enabled.Load() {
		return ""
	}
	if c := current.Load(); c != nil {
		return c.spec
	}
	return ""
}

// Enable parses a spec and starts injecting. "off" (or "") disables.
func Enable(spec string, seed int64) error {
	c, err := parseSpec(spec, seed)
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

// parseSpec validates the grammar; a nil config means "off".
func parseSpec(spec string, seed int64) (*config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return nil, nil
	}
	known := map[string]bool{}
	for _, cl := range Classes() {
		known[cl] = true
	}
	rates := map[string]float64{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("faults: empty class in spec %q", spec)
		}
		class, rateStr, hasRate := strings.Cut(part, "=")
		if !known[class] {
			return nil, fmt.Errorf("faults: unknown class %q (want one of %s)",
				class, strings.Join(Classes(), ", "))
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
	classes := make([]string, 0, len(rates))
	for cl := range rates {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	var b strings.Builder
	for i, cl := range classes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%g", cl, rates[cl])
	}
	return &config{seed: seed, rates: rates, spec: b.String()}, nil
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

// strHash folds a string into one uint64 hook argument (FNV-1a), so
// content-keyed hooks stay pure functions of their inputs.
func strHash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

// bytesHash is strHash over a byte slice.
func bytesHash(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

// CkptSaveFail decides whether the checkpoint save for an experiment
// should fail with an injected I/O error (ckpt-write-fail). Keyed on the
// experiment name only, so the same experiments lose their checkpoints
// at any -j and on a resumed run.
func CkptSaveFail(experiment string) bool {
	if !enabled.Load() {
		return false
	}
	c := current.Load()
	if c == nil {
		return false
	}
	on, _ := c.fire(CkptWriteFail, strHash(experiment))
	return on
}

// SpillTear decides how many bytes of one ledger spill line reach the
// disk (ledger-spill-torn). It returns len(line) when the class is
// inactive or this line is spared; a torn line keeps a strict prefix
// (possibly zero bytes). Keyed on the line content, never on write
// order.
func SpillTear(line []byte) int {
	if !enabled.Load() {
		return len(line)
	}
	c := current.Load()
	if c == nil {
		return len(line)
	}
	on, shape := c.fire(LedgerSpillTorn, bytesHash(line))
	if !on {
		return len(line)
	}
	return int(unit(shape) * float64(len(line)))
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

// RequestDrop decides whether the solver service should fail one admitted
// request with an injected error (req-drop). Keyed on the request's
// content digest, like RequestDelay.
func RequestDrop(digest uint64) bool {
	if !enabled.Load() {
		return false
	}
	c := current.Load()
	if c == nil {
		return false
	}
	on, _ := c.fire(ReqDrop, digest)
	return on
}

// BackendDownAt decides whether fleet backend is offline for outage
// epoch window (backend-down). A pure function of (seed, backend,
// window): every router replica sees the same backend die and come back
// at the same epoch boundaries.
func BackendDownAt(backend, window uint64) bool {
	if !enabled.Load() {
		return false
	}
	c := current.Load()
	if c == nil {
		return false
	}
	on, _ := c.fire(BackendDown, backend, window)
	return on
}

// BackendFlapAt decides whether probe number probe of a backend's
// readiness check has its result inverted (backend-flap).
func BackendFlapAt(backend, probe uint64) bool {
	if !enabled.Load() {
		return false
	}
	c := current.Load()
	if c == nil {
		return false
	}
	on, _ := c.fire(BackendFlap, backend, probe)
	return on
}

// RespTear decides how many bytes of a proxied response body actually
// reach the client (resp-torn). It returns len(body) when the class is
// inactive or this response is spared; a torn response keeps a strict
// prefix. Keyed on the body content, never on send order — the same
// response tears the same way on every replay.
func RespTear(body []byte) int {
	if !enabled.Load() {
		return len(body)
	}
	c := current.Load()
	if c == nil {
		return len(body)
	}
	on, shape := c.fire(RespTorn, bytesHash(body))
	if !on {
		return len(body)
	}
	return int(unit(shape) * float64(len(body)))
}

// HopDelay returns the injected latency for one router→backend hop
// (net-slow): NetSlowDuration when the class fires for this (backend,
// request digest) pair, zero otherwise.
func HopDelay(backend, digest uint64) time.Duration {
	if !enabled.Load() {
		return 0
	}
	c := current.Load()
	if c == nil {
		return 0
	}
	if on, _ := c.fire(NetSlow, backend, digest); on {
		return NetSlowDuration
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

// TaskStart runs the task-start fault hooks for one attempt of a task:
// task-stall sleeps StallDuration, task-panic panics with an
// InjectedPanic. Callers must invoke it before the task body so an
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
	args := []uint64{task, uint64(uint32(attempt))}
	if on, _ := c.fire(TaskStall, args...); on {
		time.Sleep(StallDuration)
	}
	if on, _ := c.fire(TaskPanic, args...); on {
		panic(InjectedPanic{Task: task, Attempt: attempt})
	}
}
