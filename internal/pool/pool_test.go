package pool

import (
	"context"
	"strings"

	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"synts/internal/faults"
	"testing"
	"time"

	"synts/internal/obs"
)

func TestZeroTasks(t *testing.T) {
	g := New(4)
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait on empty group = %v, want nil", err)
	}
}

func TestSingleTask(t *testing.T) {
	g := New(1)
	ran := false
	g.GoCtx(context.Background(), func() error { ran = true; return nil })
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("single task did not run")
	}
}

func TestFirstErrorWins(t *testing.T) {
	first := errors.New("boom")
	g := New(1) // limit 1: strictly sequential, so "first" is well defined
	g.GoCtx(context.Background(), func() error { return first })
	g.GoCtx(context.Background(), func() error { return errors.New("later") })
	if err := g.Wait(); err != first {
		t.Fatalf("Wait = %v, want the first error", err)
	}
}

func TestCancellationSkipsQueuedTasks(t *testing.T) {
	g := New(1)
	var ran atomic.Int32
	g.GoCtx(context.Background(), func() error { return errors.New("fail fast") })
	if err := g.Wait(); err == nil {
		t.Fatal("want error")
	}
	// Everything submitted after the failure must be dropped.
	for i := 0; i < 10; i++ {
		g.GoCtx(context.Background(), func() error { ran.Add(1); return nil })
	}
	if err := g.Wait(); err == nil {
		t.Fatal("error must persist across Wait calls")
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d tasks ran after cancellation, want 0", n)
	}
}

func TestDoneClosesOnError(t *testing.T) {
	g := New(2)
	select {
	case <-g.done:
		t.Fatal("Done closed before any failure")
	default:
	}
	g.GoCtx(context.Background(), func() error { return errors.New("x") })
	if err := g.Wait(); err == nil {
		t.Fatal("want error")
	}
	select {
	case <-g.done:
	case <-time.After(time.Second):
		t.Fatal("Done not closed after failure")
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const limit = 3
	g := New(limit)
	var inFlight, peak atomic.Int32
	for i := 0; i < 50; i++ {
		g.GoCtx(context.Background(), func() error {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > limit {
		t.Errorf("peak concurrency %d exceeds limit %d", p, limit)
	}
}

func TestLimitOneIsSequentialInSubmissionOrder(t *testing.T) {
	g := New(1)
	var mu sync.Mutex
	var order []int
	for i := 0; i < 20; i++ {
		g.GoCtx(context.Background(), func() error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: limit-1 pool must preserve submission order (got %v)", i, v, order)
		}
	}
}

func TestDefaultLimitFromGOMAXPROCS(t *testing.T) {
	g := New(0)
	if cap(g.sem) < 1 {
		t.Fatalf("New(0) worker limit = %d, want >= 1", cap(g.sem))
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEachCtx(context.Background(), 4, 100, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := sum.Load(); got != 4950 {
		t.Errorf("sum = %d, want 4950", got)
	}
}

func TestForEachError(t *testing.T) {
	err := ForEachCtx(context.Background(), 1, 10, func(i int) error {
		if i == 3 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 3 failed" {
		t.Fatalf("ForEachCtx error = %v, want task 3 failure", err)
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEachCtx(context.Background(), 4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

// With the obs layer enabled the pool must account every task exactly once
// (submitted == completed) and time queue waits and worker busy spans.
// It opens no per-task region: pool.worker_busy_ns already times each
// task, so the pool adds no histogram of its own beyond the two.
func TestPoolMetricsAndSpans(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	const n = 20
	var ran atomic.Int64
	if err := ForEachCtx(context.Background(), 3, n, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), n)
	}
	snap := obs.Default().Snapshot()
	if got := snap.Counters["pool.tasks.submitted"]; got != n {
		t.Errorf("submitted = %d, want %d", got, n)
	}
	if got := snap.Counters["pool.tasks.completed"]; got != n {
		t.Errorf("completed = %d, want %d", got, n)
	}
	if got := snap.Histograms["pool.queue_wait_ns"].Count; got != n {
		t.Errorf("queue-wait observations = %d, want %d", got, n)
	}
	if got := snap.Histograms["pool.worker_busy_ns"].Count; got != n {
		t.Errorf("worker-busy observations = %d, want %d", got, n)
	}
	if len(snap.Histograms) != 2 {
		t.Errorf("pool recorded histograms %v, want only pool.queue_wait_ns and pool.worker_busy_ns", snap.Histograms)
	}
}

// Metrics recording must not perturb the pool's error contract.
func TestPoolMetricsWithError(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	boom := errors.New("boom")
	err := ForEachCtx(context.Background(), 2, 10, func(i int) error {
		if i == 0 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	snap := obs.Default().Snapshot()
	if snap.Counters["pool.tasks.completed"] > snap.Counters["pool.tasks.submitted"] {
		t.Error("completed must never exceed submitted")
	}
}

// A panicking task must surface as an error carrying the stack, release
// its slot, and cancel the group — never deadlock Wait.
func TestPanicReturnsErrorNotDeadlock(t *testing.T) {
	g := New(2)
	g.GoCtx(context.Background(), func() error { panic("kaboom") })
	done := make(chan error, 1)
	go func() { done <- g.Wait() }()
	select {
	case err := <-done:
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("Wait = %v (%T), want *PanicError", err, err)
		}
		if pe.Value != "kaboom" {
			t.Errorf("panic value = %v, want kaboom", pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "pool.") {
			t.Errorf("stack trace missing pool frames:\n%s", pe.Stack)
		}
		if !strings.Contains(err.Error(), "kaboom") {
			t.Errorf("error text %q does not mention the panic value", err.Error())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait deadlocked on a panicking task")
	}
	// The slot must have been released: later groups of the same size work,
	// and this group keeps dropping tasks rather than hanging.
	g.GoCtx(context.Background(), func() error { return nil })
	if err := g.Wait(); err == nil {
		t.Fatal("panic error must persist")
	}
}

func TestPanicCancelsQueuedTasks(t *testing.T) {
	g := New(1)
	var ran atomic.Int32
	g.GoCtx(context.Background(), func() error { panic("first") })
	if err := g.Wait(); err == nil {
		t.Fatal("want panic error")
	}
	for i := 0; i < 5; i++ {
		g.GoCtx(context.Background(), func() error { ran.Add(1); return nil })
	}
	if err := g.Wait(); err == nil {
		t.Fatal("panic error must persist")
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d tasks ran after a panic, want 0", n)
	}
}

func TestGoCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := New(2)
	var ran atomic.Int32
	g.GoCtx(ctx, func() error { ran.Add(1); return nil })
	err := g.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Error("task ran despite cancelled context")
	}
}

// Cancellation mid-run: indices submitted after cancel are skipped, Wait
// returns promptly with the context error.
func TestForEachCtxStopsPromptlyOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	start := time.Now()
	err := ForEachCtx(ctx, 1, 1000, func(i int) error {
		if ran.Add(1) == 3 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 100 {
		t.Errorf("%d tasks ran after cancellation, want a handful", n)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("ForEachCtx took %v to unwind", d)
	}
}

// Task errors keep precedence over a racing context cancellation.
func TestForEachCtxTaskErrorWins(t *testing.T) {
	boom := errors.New("boom")
	err := ForEachCtx(context.Background(), 1, 10, func(i int) error {
		if i == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
}

// Satellite: submitted must reconcile with completed + dropped so the
// metrics no longer skew after first-error cancellation.
func TestPoolMetricsDroppedReconciles(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	boom := errors.New("boom")
	const n = 10
	err := ForEachCtx(context.Background(), 1, n, func(i int) error {
		if i == 0 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	snap := obs.Default().Snapshot()
	sub := snap.Counters["pool.tasks.submitted"]
	comp := snap.Counters["pool.tasks.completed"]
	drop := snap.Counters["pool.tasks.dropped"]
	if sub != n {
		t.Errorf("submitted = %d, want %d", sub, n)
	}
	if drop == 0 {
		t.Error("dropped = 0: limit-1 pool with first task failing must drop the queue")
	}
	if comp+drop != sub {
		t.Errorf("completed(%d) + dropped(%d) != submitted(%d)", comp, drop, sub)
	}
}

func TestPoolMetricsDroppedOnCtxCancel(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := New(1)
	const n = 5
	for i := 0; i < n; i++ {
		g.GoCtx(ctx, func() error { return nil })
	}
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	snap := obs.Default().Snapshot()
	if got := snap.Counters["pool.tasks.dropped"]; got != n {
		t.Errorf("dropped = %d, want %d", got, n)
	}
}

// Injected panics (chaos harness) fire before the task body and are
// retried within the budget, so a moderate injection rate still completes.
func TestInjectedPanicsRetried(t *testing.T) {
	if err := faults.Enable("task-panic=0.5", 1); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()
	var ran atomic.Int32
	if err := ForEachCtx(context.Background(), 4, 30, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("ForEachCtx under task-panic=0.5 = %v, want nil (retries absorb injected panics)", err)
	}
	if got := ran.Load(); got != 30 {
		t.Errorf("ran %d tasks, want 30", got)
	}
}

// With rate 1 every retry panics too; the budget must bound the loop and
// surface the injected panic as a PanicError.
func TestInjectedPanicBudgetExhausted(t *testing.T) {
	if err := faults.Enable("task-panic=1", 1); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()
	g := New(1)
	g.GoCtx(context.Background(), func() error { return nil })
	err := g.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Wait = %v, want *PanicError", err)
	}
	if !faults.IsInjectedPanic(pe.Value) {
		t.Errorf("panic value %v is not the injected sentinel", pe.Value)
	}
}

// A real panic from the task body must never be retried, even with the
// chaos harness active.
func TestRealPanicNotRetried(t *testing.T) {
	if err := faults.Enable("replay-perturb", 1); err != nil { // harness on, task classes off
		t.Fatal(err)
	}
	defer faults.Disable()
	var attempts atomic.Int32
	g := New(1)
	g.GoCtx(context.Background(), func() error {
		attempts.Add(1)
		panic("real bug")
	})
	err := g.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "real bug" {
		t.Fatalf("Wait = %v, want PanicError(real bug)", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("task body ran %d times, want 1", got)
	}
}

func TestWorkerRunReturnsErrors(t *testing.T) {
	if err := Run(func() error { return nil }); err != nil {
		t.Fatalf("nil-error task: %v", err)
	}
	want := errors.New("boom")
	if err := Run(func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("error passthrough: %v", err)
	}
}

func TestWorkerRunRecoversPanics(t *testing.T) {
	err := Run(func() error { panic("request bug") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not wrapped as *PanicError: %v", err)
	}
	if pe.Value != "request bug" {
		t.Errorf("panic value %v", pe.Value)
	}
	// The calling worker survives: the next Run works.
	if err := Run(func() error { return nil }); err != nil {
		t.Fatalf("Run poisoned after panic: %v", err)
	}
}
