package faults

import "testing"

// Disabled injection must leave requests untouched.
func TestRequestHooksDisabled(t *testing.T) {
	Disable()
	if d := RequestDelay(12345); d != 0 {
		t.Errorf("delay %v while disabled", d)
	}
}

// Rate 1 fires on every request; the delay is the fixed ReqSlowDuration.
func TestRequestHooksAlwaysFire(t *testing.T) {
	if err := Enable("req-slow=1", 7, allClasses); err != nil {
		t.Fatal(err)
	}
	defer Disable()
	for _, digest := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		if d := RequestDelay(digest); d != ReqSlowDuration {
			t.Errorf("digest %x: delay %v, want %v", digest, d, ReqSlowDuration)
		}
	}
}

// Decisions are a pure function of (seed, class, digest): repeated calls
// agree, and a fractional rate fires on some but not all requests.
func TestRequestHooksDeterministic(t *testing.T) {
	if err := Enable("req-slow=0.5", 1234, allClasses); err != nil {
		t.Fatal(err)
	}
	defer Disable()
	slow := 0
	for digest := uint64(0); digest < 500; digest++ {
		d1, d2 := RequestDelay(digest), RequestDelay(digest)
		if d1 != d2 {
			t.Fatalf("digest %d: delay not deterministic", digest)
		}
		if d1 > 0 {
			slow++
		}
	}
	if slow == 0 || slow == 500 {
		t.Errorf("rate 0.5 fired slow=%d/500", slow)
	}
}
