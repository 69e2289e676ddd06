package fleet

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock is the injectable breaker clock for the table tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

// trace collects transitions as "from->to:reason" strings.
type trace struct{ steps []string }

func (tr *trace) hook(from, to BreakerState, reason, traceID string) {
	tr.steps = append(tr.steps, fmt.Sprintf("%s->%s:%s", from, to, reason))
}

// The breaker state machine, table-driven over a seeded (fake) clock:
// each step either records an outcome, advances time, or asserts
// state/admission.
func TestBreakerStateMachine(t *testing.T) {
	type step struct {
		op   string        // "ok", "fail", "advance", "allow", "deny", "state"
		d    time.Duration // advance
		want BreakerState  // state
	}
	cases := []struct {
		name    string
		cfg     BreakerConfig
		steps   []step
		wantLog []string
	}{
		{
			name: "consecutive failures trip then probe recovers",
			cfg:  BreakerConfig{Failures: 3, Cooldown: time.Second},
			steps: []step{
				{op: "fail"}, {op: "fail"},
				{op: "state", want: BreakerClosed},
				{op: "fail"},
				{op: "state", want: BreakerOpen},
				{op: "deny"}, // cooldown not elapsed
				{op: "advance", d: 999 * time.Millisecond},
				{op: "deny"},
				{op: "advance", d: time.Millisecond},
				{op: "allow"}, // half-open probe admitted
				{op: "state", want: BreakerHalfOpen},
				{op: "deny"}, // only one probe at a time
				{op: "ok"},   // probe succeeds
				{op: "state", want: BreakerClosed},
				{op: "allow"},
			},
			wantLog: []string{
				"closed->open:consecutive-failures",
				"open->half-open:cooldown",
				"half-open->closed:probe-ok",
			},
		},
		{
			name: "failed probe reopens",
			cfg:  BreakerConfig{Failures: 2, Cooldown: time.Second},
			steps: []step{
				{op: "fail"}, {op: "fail"},
				{op: "state", want: BreakerOpen},
				{op: "advance", d: time.Second},
				{op: "allow"},
				{op: "fail"}, // probe fails
				{op: "state", want: BreakerOpen},
				{op: "deny"},
				{op: "advance", d: time.Second},
				{op: "allow"},
				{op: "ok"},
				{op: "state", want: BreakerClosed},
			},
			wantLog: []string{
				"closed->open:consecutive-failures",
				"open->half-open:cooldown",
				"half-open->open:probe-fail",
				"open->half-open:cooldown",
				"half-open->closed:probe-ok",
			},
		},
		{
			name: "successes interleaved never trip the consecutive gate",
			cfg:  BreakerConfig{Failures: 3, Cooldown: time.Second},
			steps: []step{
				{op: "fail"}, {op: "fail"}, {op: "ok"},
				{op: "fail"}, {op: "fail"}, {op: "ok"},
				{op: "state", want: BreakerClosed},
				{op: "allow"},
			},
			wantLog: nil,
		},
		{
			name: "probe success clears failure history",
			cfg:  BreakerConfig{Failures: 2, Cooldown: time.Second},
			steps: []step{
				{op: "fail"}, {op: "fail"},
				{op: "advance", d: time.Second},
				{op: "allow"}, {op: "ok"},
				// One more failure must not re-trip: the consec counter reset.
				{op: "fail"},
				{op: "state", want: BreakerClosed},
			},
			wantLog: []string{
				"closed->open:consecutive-failures",
				"open->half-open:cooldown",
				"half-open->closed:probe-ok",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(1000, 0)}
			tr := &trace{}
			cfg := tc.cfg
			cfg.Now = clk.now
			cfg.OnTransition = tr.hook
			b := NewBreaker(cfg)
			for i, s := range tc.steps {
				switch s.op {
				case "ok":
					b.RecordT(true, "")
				case "fail":
					b.RecordT(false, "")
				case "advance":
					clk.advance(s.d)
				case "allow":
					if !b.Allow() {
						t.Fatalf("step %d: Allow() = false, want true", i)
					}
				case "deny":
					if b.Allow() {
						t.Fatalf("step %d: Allow() = true, want false", i)
					}
				case "state":
					if got := b.State(); got != s.want {
						t.Fatalf("step %d: state %s, want %s", i, got, s.want)
					}
				default:
					t.Fatalf("step %d: bad op %q", i, s.op)
				}
			}
			if len(tr.steps) != len(tc.wantLog) {
				t.Fatalf("transitions %v, want %v", tr.steps, tc.wantLog)
			}
			for i := range tr.steps {
				if tr.steps[i] != tc.wantLog[i] {
					t.Fatalf("transition %d = %q, want %q", i, tr.steps[i], tc.wantLog[i])
				}
			}
		})
	}
}

// A closed breaker admits everything; RecordT(true, "") keeps it closed
// forever — the common no-failure path allocates nothing and flips
// nothing.
func TestBreakerHappyPath(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	for i := 0; i < 1000; i++ {
		if !b.Allow() {
			t.Fatal("healthy breaker denied a request")
		}
		b.RecordT(true, "")
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %s after all-success traffic", b.State())
	}
}

// Allow transitions open -> half-open lazily: State alone never does.
func TestBreakerLazyHalfOpen(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Failures: 1, Cooldown: time.Second, Now: clk.now})
	b.RecordT(false, "")
	clk.advance(2 * time.Second)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %s before Allow, want open", got)
	}
	if !b.Allow() {
		t.Fatal("Allow after cooldown = false")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state %s after Allow, want half-open", got)
	}
}
