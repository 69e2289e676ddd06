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
// cancelled, so SIGINT/SIGTERM unwinds the whole pipeline promptly.
// Injected panics from the internal/faults chaos harness fire before the
// task body and are retried within a small budget.
//
// When the obs layer is enabled the pool reports tasks
// submitted/completed/dropped, queue wait (submission to slot acquisition)
// and worker busy time; with obs disabled the added cost is one atomic
// load per GoCtx call.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
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

// Group runs tasks on at most limit goroutines at a time. GoCtx blocks the
// submitting goroutine while the pool is full, so submission order is also
// start order; with limit 1 the tasks run strictly sequentially. After a
// task returns a non-nil error (or panics, or the submission context is
// cancelled), subsequent GoCtx calls skip their task and Wait returns the
// first error.
type Group struct {
	sem  chan struct{} // one token per running task
	wg   sync.WaitGroup
	once sync.Once
	err  error
	done chan struct{}
}

// New returns a Group limited to the given number of concurrently running
// tasks. A limit <= 0 means runtime.GOMAXPROCS(0).
func New(limit int) *Group {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	return &Group{
		sem:  make(chan struct{}, limit),
		done: make(chan struct{}),
	}
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
	select {
	case <-g.done:
		drop(nil)
		return
	case <-ctx.Done():
		drop(ctx.Err())
		return
	case g.sem <- struct{}{}:
	}
	if !submitted.IsZero() {
		obs.H("pool.queue_wait_ns").Observe(float64(time.Since(submitted)))
	}
	g.wg.Add(1)
	go func() {
		var started time.Time
		if obs.Enabled() {
			started = time.Now()
		}
		defer func() {
			if !started.IsZero() {
				obs.H("pool.worker_busy_ns").Observe(float64(time.Since(started)))
				obs.C("pool.tasks.completed").Add(1)
			}
			<-g.sem
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
// their own queue (the solver service's workers): a Group's first-error
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
// real) into a *PanicError.
func runAttempt(task uint64, attempt int, fn func() error) (err error) {
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
