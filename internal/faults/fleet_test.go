package faults

import (
	"maps"
	"slices"
	"testing"
	"time"
)

// All four fleet classes are inert while the injector is disabled.
func TestFleetHooksDisabled(t *testing.T) {
	Disable()
	if BackendDownAt(0, 0) {
		t.Fatal("BackendDownAt fired while disabled")
	}
	if BackendFlapAt(1, 2) {
		t.Fatal("BackendFlapAt fired while disabled")
	}
	body := []byte("response body")
	if got := RespTear(body); got != len(body) {
		t.Fatalf("RespTear = %d while disabled, want %d", got, len(body))
	}
	if got := HopDelay(0, 42); got != 0 {
		t.Fatalf("HopDelay = %v while disabled, want 0", got)
	}
}

// Decisions are pure functions of seed + site: the same seed replays the
// same outages, flaps, tears and slow hops; a different seed diverges.
func TestFleetHooksDeterministic(t *testing.T) {
	defer Disable()
	spec := "backend-down,backend-flap,resp-torn,net-slow"
	collect := func(seed int64) (down, flap []bool, tear []int, slow []bool) {
		if err := Enable(spec, seed); err != nil {
			t.Fatal(err)
		}
		for b := uint64(0); b < 4; b++ {
			for w := uint64(0); w < 32; w++ {
				down = append(down, BackendDownAt(b, w))
				flap = append(flap, BackendFlapAt(b, w))
				slow = append(slow, HopDelay(b, w) > 0)
			}
		}
		for i := 0; i < 64; i++ {
			tear = append(tear, RespTear([]byte{byte(i), byte(i >> 1), 0xEE}))
		}
		return
	}
	d1, f1, t1, s1 := collect(7)
	d2, f2, t2, s2 := collect(7)
	for i := range d1 {
		if d1[i] != d2[i] || f1[i] != f2[i] || s1[i] != s2[i] {
			t.Fatalf("site %d: same seed, different decision", i)
		}
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("tear %d: same seed, different length", i)
		}
	}
	d3, f3, t3, _ := collect(8)
	same := true
	for i := range d1 {
		if d1[i] != d3[i] || f1[i] != f3[i] {
			same = false
			break
		}
	}
	for i := range t1 {
		if t1[i] != t3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 made identical decisions everywhere")
	}
}

// A torn response keeps a strict prefix; rate=1 tears everything, and
// hops slow by exactly NetSlowDuration.
func TestFleetHookShapes(t *testing.T) {
	defer Disable()
	if err := Enable("resp-torn=1,net-slow=1,backend-down=1", 3); err != nil {
		t.Fatal(err)
	}
	body := []byte("a full response body that should tear")
	keep := RespTear(body)
	if keep < 0 || keep >= len(body) {
		t.Fatalf("RespTear at rate 1 kept %d of %d: want a strict prefix", keep, len(body))
	}
	if got := HopDelay(2, 99); got != NetSlowDuration {
		t.Fatalf("HopDelay = %v, want %v", got, NetSlowDuration)
	}
	if !BackendDownAt(1, 5) {
		t.Fatal("BackendDownAt at rate 1 spared a backend")
	}
}

// Fleet classes fire at roughly their configured rate.
func TestFleetHookRates(t *testing.T) {
	defer Disable()
	if err := Enable("backend-flap=0.25", 11); err != nil {
		t.Fatal(err)
	}
	const n = 4000
	fired := 0
	for i := uint64(0); i < n; i++ {
		if BackendFlapAt(i%5, i) {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.18 || frac > 0.32 {
		t.Fatalf("flap rate %.3f, want ~0.25", frac)
	}
}

// The spec grammar accepts the new classes (they are listed in Classes).
func TestFleetSpecParsing(t *testing.T) {
	c, err := parseSpec("backend-down=0.5,backend-flap,resp-torn=0.1,net-slow", 1)
	if err != nil {
		t.Fatalf("fleet spec rejected: %v", err)
	}
	want := map[string]float64{BackendDown: 0.5, BackendFlap: 0.25, RespTorn: 0.1, NetSlow: 0.25}
	if !maps.Equal(c.rates, want) {
		t.Fatalf("parsed rates %v, want %v", c.rates, want)
	}
	for cl := range want {
		if !slices.Contains(Classes(), cl) {
			t.Fatalf("class %s missing from Classes()", cl)
		}
	}
}

// BackendDownWindow gives outages a duration tests can reason about.
func TestBackendDownWindowSane(t *testing.T) {
	if BackendDownWindow < time.Second || BackendDownWindow > time.Minute {
		t.Fatalf("BackendDownWindow %v outside sane drill range", BackendDownWindow)
	}
}
