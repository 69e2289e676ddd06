// Package flight is the repository's generic singleflight layer: a
// concurrency-safe memo that guarantees exactly one execution per key
// while concurrent callers for the same key block on (and share) that
// execution's result. It serves the two memos of internal/exp:
// BenchCache (kernel runs shared across experiments) and the per-stage
// profile memo inside Bench. Do keeps each entry, so later callers are
// hits; DiscardIf drops entries whose computation was aborted (context
// cancellation must not poison the cache).
package flight

import "sync"

// Outcome classifies one Do call for the caller's metrics: a fresh entry
// is a Miss (this caller ran the computation), an entry whose computation
// was still running is a Wait (this caller blocked on the winner), and a
// completed entry is a Hit.
type Outcome int

const (
	Miss Outcome = iota
	Wait
	Hit
)

// String returns the obs-counter-suffix spelling of the outcome.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Wait:
		return "wait"
	default:
		return "hit"
	}
}

// call is one key's memoized computation.
type call[V any] struct {
	once sync.Once
	done chan struct{} // closed when the computation has finished
	v    V
	err  error
}

// Memo is a keyed singleflight memo. The zero value is ready to use; a
// Memo must not be copied after first use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V]
}

// Do returns the memoized value for key, computing it with fn on first
// use. Exactly one caller per key runs fn (even under concurrency); all
// others receive the same value and error. The returned Outcome says how
// this caller was served. fn runs without the Memo's lock held, so
// computations for different keys proceed concurrently and fn may use the
// Memo reentrantly for other keys.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error, Outcome) {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]*call[V])
	}
	c, existed := m.m[key]
	if !existed {
		c = &call[V]{done: make(chan struct{})}
		m.m[key] = c
	}
	m.mu.Unlock()

	outcome := Miss
	if existed {
		outcome = Wait
		select {
		case <-c.done:
			outcome = Hit
		default:
		}
	}
	c.once.Do(func() {
		defer close(c.done)
		c.v, c.err = fn()
	})
	if outcome == Wait {
		// The winner may still be inside fn on another goroutine (our
		// once.Do returned without running it); the result is only
		// readable after done closes.
		<-c.done
	}
	return c.v, c.err, outcome
}

// DiscardIf removes key's entry if pred approves its recorded error.
// Callers use it after Do with a predicate matching context-cancellation
// errors, so an aborted computation does not poison the memo: the entry
// is discarded only while it is still the one this caller observed, never
// a fresh replacement.
func (m *Memo[K, V]) DiscardIf(key K, pred func(error) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.m[key]
	if !ok {
		return
	}
	select {
	case <-c.done:
	default:
		return // still running; its own Do call will decide
	}
	if pred(c.err) {
		delete(m.m, key)
	}
}
