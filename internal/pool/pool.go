// Package pool provides a small bounded worker pool with errgroup-style
// first-error cancellation, stdlib-only. It is shared by the trace-building
// pipeline (fan-out over (thread, interval) tasks) and the experiment layer
// (concurrent experiment drivers in cmd/synts, per-benchmark fan-out in
// internal/exp). Results are always assembled by index on the caller's
// side, so bounded concurrency never perturbs output order.
//
// Failure handling: a task panic is recovered, converted into a *PanicError
// carrying the goroutine stack, and treated like any other first error —
// the slot is released and Wait returns instead of deadlocking. GoCtx and
// ForEachCtx stop admitting tasks once their context.Context is
// cancelled, so SIGINT/SIGTERM unwinds the whole pipeline promptly. An
// optional stall watchdog (SetStallWatchdog) dumps all goroutine stacks
// when a single task runs past a deadline. Injected panics from the
// internal/faults chaos harness fire before the task body and are retried
// within a small budget.
//
// When the obs layer is enabled the pool reports tasks
// submitted/completed/dropped, queue wait (submission to slot acquisition)
// and worker busy time, and wraps every task in a span pinned to its
// worker's Chrome-trace row; with obs disabled the added cost is one
// atomic load per GoCtx call.
package pool

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"synts/internal/faults"
	"synts/internal/obs"
)

// PanicError is the error a recovered task panic surfaces as; Stack is the
// panicking goroutine's stack at recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: task panicked: %v\n%s", e.Value, e.Stack)
}

// Stall watchdog state. The deadline is an atomic so the per-task gate is
// one load; the writer is only touched when a dump actually fires.
var (
	stallDeadline atomic.Int64 // nanoseconds; 0 = watchdog off
	stallMu       sync.Mutex
	stallWriter   io.Writer   = os.Stderr
	stallFired    atomic.Bool // at most one dump per process
)

// SetStallWatchdog arms (d > 0) or disarms (d <= 0) the stall watchdog: a
// task running longer than d triggers a single full goroutine-stack dump
// to w (nil = os.Stderr), identifying where a wedged pipeline is stuck.
// The dump fires at most once per process.
func SetStallWatchdog(d time.Duration, w io.Writer) {
	stallMu.Lock()
	if w != nil {
		stallWriter = w
	} else {
		stallWriter = os.Stderr
	}
	stallMu.Unlock()
	if d < 0 {
		d = 0
	}
	stallDeadline.Store(int64(d))
	stallFired.Store(false)
}

func dumpStalledStacks(d time.Duration) {
	if !stallFired.CompareAndSwap(false, true) {
		return
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	stallMu.Lock()
	defer stallMu.Unlock()
	fmt.Fprintf(stallWriter, "pool: watchdog: task still running after %v; goroutine dump:\n%s\n", d, buf[:n])
}

// Group runs tasks on at most limit goroutines at a time. GoCtx blocks the
// submitting goroutine while the pool is full, so submission order is also
// start order; with limit 1 the tasks run strictly sequentially. After a
// task returns a non-nil error (or panics, or the submission context is
// cancelled), subsequent GoCtx calls skip their task and Wait returns the
// first error.
type Group struct {
	sem  chan int // worker slot ids; receive to acquire, send back to release
	wg   sync.WaitGroup
	once sync.Once
	err  error
	done chan struct{}
	tid0 int // first Chrome-trace row of this pool's workers (0 = untracked)
}

// New returns a Group limited to the given number of concurrently running
// tasks. A limit <= 0 means runtime.GOMAXPROCS(0).
func New(limit int) *Group {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	g := &Group{
		sem:  make(chan int, limit),
		done: make(chan struct{}),
	}
	for i := 0; i < limit; i++ {
		g.sem <- i
	}
	if obs.Enabled() {
		g.tid0 = obs.NextTIDBlock(limit)
	}
	return g
}

// fail records the group's first error and cancels the group.
func (g *Group) fail(err error) {
	g.once.Do(func() {
		g.err = err
		close(g.done)
	})
}

// GoCtx submits a task, blocking until a worker slot is free. If an
// earlier task has already failed, the task is dropped without running:
// the pool's contract is first-error cancellation, not best-effort
// completion. Once ctx is cancelled, the task (and every later one
// submitted with that ctx) is dropped too and Wait returns ctx's error —
// unless a task error arrived first, which keeps first-error precedence.
func (g *Group) GoCtx(ctx context.Context, fn func() error) {
	var submitted time.Time
	if obs.Enabled() {
		submitted = time.Now()
		obs.C("pool.tasks.submitted").Add(1)
	}
	drop := func(failErr error) {
		if failErr != nil {
			g.fail(failErr)
		}
		if !submitted.IsZero() {
			obs.C("pool.tasks.dropped").Add(1)
		}
	}
	select {
	case <-g.done:
		drop(nil)
		return
	case <-ctx.Done():
		drop(ctx.Err())
		return
	default:
	}
	var slot int
	select {
	case <-g.done:
		drop(nil)
		return
	case <-ctx.Done():
		drop(ctx.Err())
		return
	case slot = <-g.sem:
	}
	if !submitted.IsZero() {
		obs.H("pool.queue_wait_ns").Observe(float64(time.Since(submitted)))
	}
	g.wg.Add(1)
	go func() {
		var sp *obs.Span
		var started time.Time
		if obs.Enabled() {
			sp = obs.StartSpan("pool.task")
			sp.SetTID(g.tid0 + slot)
			started = time.Now()
		}
		defer func() {
			if !started.IsZero() {
				obs.H("pool.worker_busy_ns").Observe(float64(time.Since(started)))
				obs.C("pool.tasks.completed").Add(1)
			}
			sp.End()
			g.sem <- slot
			g.wg.Done()
		}()
		if err := runTask(fn); err != nil {
			g.fail(err)
		}
	}()
}

// Run executes fn on the calling goroutine with the pool's per-task
// treatment and returns its error: the submitted/completed counters and
// the pool.worker_busy_ns histogram while obs is enabled, the chaos
// harness's task-start hooks with the injected-panic retry budget, and
// panic recovery into *PanicError. It is for long-lived workers that keep
// their own queues (the solver service's shards): a Group's first-error
// cancellation would poison every later task, and a panic in one task must
// never take the worker down.
func Run(fn func() error) error {
	if !obs.Enabled() {
		return runTask(fn)
	}
	obs.C("pool.tasks.submitted").Add(1)
	started := time.Now()
	defer func() {
		obs.H("pool.worker_busy_ns").Observe(float64(time.Since(started)))
		obs.C("pool.tasks.completed").Add(1)
	}()
	return runTask(fn)
}

// runTask executes fn with panic recovery and the chaos-harness task-start
// hooks. Injected panics fire before fn runs (so nothing is half-done) and
// are retried within the faults package's budget; a real panic from fn is
// surfaced immediately as a *PanicError.
func runTask(fn func() error) error {
	if !faults.Enabled() {
		return runAttempt(0, 0, fn)
	}
	task := faults.NextTaskID()
	budget := faults.TaskPanicRetryBudget()
	for attempt := 0; ; attempt++ {
		err := runAttempt(task, attempt, fn)
		var pe *PanicError
		if attempt < budget && errAsPanic(err, &pe) && faults.IsInjectedPanic(pe.Value) {
			continue
		}
		return err
	}
}

func errAsPanic(err error, out **PanicError) bool {
	pe, ok := err.(*PanicError)
	if ok {
		*out = pe
	}
	return ok
}

// runAttempt runs one attempt of a task, converting a panic (injected or
// real) into a *PanicError. The watchdog timer spans the attempt.
func runAttempt(task uint64, attempt int, fn func() error) (err error) {
	if d := time.Duration(stallDeadline.Load()); d > 0 {
		t := time.AfterFunc(d, func() { dumpStalledStacks(d) })
		defer t.Stop()
	}
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if faults.Enabled() {
		faults.TaskStart(task, attempt)
	}
	return fn()
}

// Done is closed when a task fails; long-running tasks may poll it to bail
// out early.
func (g *Group) Done() <-chan struct{} { return g.done }

// Wait blocks until every started task has finished and returns the first
// error, if any.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.err
}

// ForEachCtx runs fn(0) … fn(n-1) on at most limit concurrent goroutines
// (limit <= 0 means GOMAXPROCS) and returns the first error. Indices whose
// task never ran because of an earlier failure are simply skipped; callers
// that need every index must check the returned error. Indices not yet
// submitted when ctx is cancelled are skipped too, and the context's
// error is returned (unless a task failed first).
func ForEachCtx(ctx context.Context, limit, n int, fn func(i int) error) error {
	g := New(limit)
	for i := 0; i < n; i++ {
		g.GoCtx(ctx, func() error { return fn(i) })
	}
	return g.Wait()
}
