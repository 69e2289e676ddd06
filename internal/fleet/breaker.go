package fleet

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed admits traffic; failures are being counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects traffic until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe request; its outcome
	// decides between closed and open.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker transition reasons, combined with the target state into the
// ledger event reason (e.g. "open:consecutive-failures").
const (
	TransConsecutive = "consecutive-failures"
	TransCooldown    = "cooldown"
	TransProbeOK     = "probe-ok"
	TransProbeFail   = "probe-fail"
)

// BreakerConfig tunes one circuit breaker. The zero value gets sane
// defaults from NewBreaker.
type BreakerConfig struct {
	// Failures opens the breaker after this many consecutive failures;
	// <= 0 means 5.
	Failures int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe; <= 0 means 2s.
	Cooldown time.Duration
	// Now is the clock; nil means time.Now. Tests inject a fake.
	Now func() time.Time
	// OnTransition observes every state change (called outside the
	// breaker lock is NOT guaranteed — keep it fast and reentrancy-free).
	// trace is the distributed-trace ID of the request whose outcome
	// caused the transition ("" when no traced request was involved, e.g.
	// the lazy open → half-open cooldown flip or a health-probe outcome).
	OnTransition func(from, to BreakerState, reason, trace string)
}

// Breaker is one per-backend circuit breaker of the router: closed →
// open on consecutive failures, open → half-open after a cooldown,
// half-open → closed on a successful probe (or back to open on a failed
// one). It is the fleet's mirror of the paper's confidence mechanism:
// stop speculating through a path that keeps mis-speculating, re-test it
// cautiously, resume when it proves healthy.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	consec   int // consecutive failures while closed
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// NewBreaker builds a breaker, applying defaults for zero config fields.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Failures <= 0 {
		cfg.Failures = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// State returns the breaker's current position (open flips to half-open
// lazily, on the first Allow after the cooldown).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether a request may proceed. While open it returns
// false until the cooldown elapses, then transitions to half-open and
// admits exactly one probe; the probe's RecordT settles the state. Every
// true return must be followed by exactly one RecordT call.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.transition(BreakerHalfOpen, TransCooldown, "")
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// RecordT feeds one admitted request's outcome back, with the
// distributed-trace ID of that request ("" when untraced), so a
// transition this outcome causes is attributable to the trace in the
// ledger.
func (b *Breaker) RecordT(ok bool, trace string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.consec = 0
			b.transition(BreakerClosed, TransProbeOK, trace)
		} else {
			b.openedAt = b.cfg.Now()
			b.transition(BreakerOpen, TransProbeFail, trace)
		}
	case BreakerClosed:
		if ok {
			b.consec = 0
		} else {
			b.consec++
		}
		if b.consec >= b.cfg.Failures {
			b.openedAt = b.cfg.Now()
			b.transition(BreakerOpen, TransConsecutive, trace)
		}
	case BreakerOpen:
		// A straggler from before the trip; the cooldown already governs.
	}
}

// transition flips the state and notifies; callers hold b.mu.
func (b *Breaker) transition(to BreakerState, reason, trace string) {
	from := b.state
	b.state = to
	if b.cfg.OnTransition != nil && from != to {
		b.cfg.OnTransition(from, to, reason, trace)
	}
}
