package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoMemoizes(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int64
	fn := func() (int, error) {
		calls.Add(1)
		return 42, nil
	}
	v, err, out := m.Do("k", fn)
	if v != 42 || err != nil || out != Miss {
		t.Fatalf("first Do = (%d, %v, %v), want (42, nil, Miss)", v, err, out)
	}
	v, err, out = m.Do("k", fn)
	if v != 42 || err != nil || out != Hit {
		t.Fatalf("second Do = (%d, %v, %v), want (42, nil, Hit)", v, err, out)
	}
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	if m.len() != 1 {
		t.Fatalf("Len = %d, want 1", m.len())
	}
}

func TestDoSharesErrors(t *testing.T) {
	var m Memo[int, string]
	boom := errors.New("boom")
	_, err, _ := m.Do(7, func() (string, error) { return "", boom })
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	_, err, out := m.Do(7, func() (string, error) { t.Fatal("must not rerun"); return "", nil })
	if err != boom || out != Hit {
		t.Fatalf("cached err = (%v, %v), want (boom, Hit)", err, out)
	}
}

func TestConcurrentSingleExecution(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int64
	release := make(chan struct{})
	const n = 32
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, out := m.Do("key", func() (int, error) {
				calls.Add(1)
				<-release
				return 99, nil
			})
			if v != 99 || err != nil {
				t.Errorf("Do = (%d, %v), want (99, nil)", v, err)
			}
			outcomes[i] = out
		}(i)
	}
	// Let every goroutine reach Do before releasing the winner; the
	// winner blocks inside fn so late arrivals classify as Wait.
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	misses := 0
	for _, o := range outcomes {
		if o == Miss {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("got %d Miss outcomes, want exactly 1", misses)
	}
}

func TestDiscardIfEvictsCanceled(t *testing.T) {
	var m Memo[string, int]
	_, err, _ := m.Do("k", func() (int, error) { return 0, context.Canceled })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	m.DiscardIf("k", func(e error) bool { return errors.Is(e, context.Canceled) })
	if m.len() != 0 {
		t.Fatalf("canceled entry not evicted, Len = %d", m.len())
	}
	// A successful entry must survive the same predicate.
	m.Do("k", func() (int, error) { return 5, nil })
	m.DiscardIf("k", func(e error) bool { return errors.Is(e, context.Canceled) })
	if m.len() != 1 {
		t.Fatalf("successful entry evicted, Len = %d", m.len())
	}
}

func TestDistinctKeysIndependent(t *testing.T) {
	var m Memo[int, int]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := m.Do(i, func() (int, error) { return i * i, nil })
			if v != i*i || err != nil {
				t.Errorf("key %d = (%d, %v)", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	if m.len() != 8 {
		t.Fatalf("Len = %d, want 8", m.len())
	}
}

func TestOutcomeString(t *testing.T) {
	for _, tc := range []struct {
		o    Outcome
		want string
	}{{Miss, "miss"}, {Wait, "wait"}, {Hit, "hit"}} {
		if got := tc.o.String(); got != tc.want {
			t.Errorf("Outcome(%d).String() = %q, want %q", tc.o, got, tc.want)
		}
	}
}

func ExampleMemo() {
	var m Memo[string, string]
	v, _, out := m.Do("greet", func() (string, error) { return "hello", nil })
	fmt.Println(v, out)
	v, _, out = m.Do("greet", func() (string, error) { return "never", nil })
	fmt.Println(v, out)
	// Output:
	// hello miss
	// hello hit
}

// len returns the number of live entries (cached or in flight).
func (m *Memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
