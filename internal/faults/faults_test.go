package faults

import (
	"maps"
	"math"
	"strings"
	"testing"
)

// allClasses accepts every class, so these tests reach every hook.
var allClasses = []string{SampleNoise, SampleDrop, SampleNaN, ReplayPerturb, TaskPanic, ReqSlow}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr string // substring; "" = ok
		wantOff bool
	}{
		{spec: "", wantOff: true},
		{spec: "off", wantOff: true},
		{spec: "  off  ", wantOff: true},
		{spec: "sample-noise"},
		{spec: "sample-noise,task-panic"},
		{spec: "sample-nan=0.5"},
		{spec: "replay-perturb=1"},
		{spec: "sample-drop=0.01, task-panic=0.02"},
		{spec: "bogus", wantErr: "not accepted"},
		// Retired class names are refused, not silently ignored.
		{spec: "ledger-spill-torn", wantErr: "not accepted"},
		{spec: "backend-down", wantErr: "not accepted"},
		{spec: "backend-flap", wantErr: "not accepted"},
		{spec: "resp-torn", wantErr: "not accepted"},
		{spec: "net-slow", wantErr: "not accepted"},
		{spec: "sample-noise=0", wantErr: "want a float in (0,1]"},
		{spec: "sample-noise=1.5", wantErr: "want a float in (0,1]"},
		{spec: "sample-noise=x", wantErr: "want a float in (0,1]"},
		{spec: "sample-noise,,task-panic", wantErr: "empty class"},
		{spec: "sample-noise,sample-noise", wantErr: "given twice"},
	}
	for _, tc := range cases {
		c, err := parseSpec(tc.spec, 1, allClasses)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseSpec(%q): err=%v, want substring %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSpec(%q): unexpected error %v", tc.spec, err)
			continue
		}
		if tc.wantOff != (c == nil) {
			t.Errorf("parseSpec(%q): off=%v, want %v", tc.spec, c == nil, tc.wantOff)
		}
	}
}

// A parsed spec holds exactly the classes it names, each at its default
// rate unless the spec gives one.
func TestCanonicalSpec(t *testing.T) {
	c, err := parseSpec("task-panic,sample-noise", 1, allClasses)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{SampleNoise: 0.25, TaskPanic: 0.05}
	if !maps.Equal(c.rates, want) {
		t.Errorf("parsed rates %v, want %v", c.rates, want)
	}
}

func TestDisabledHooksAreIdentity(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() after Disable()")
	}
	if got := Estimate(3, 2, 0.125); got != 0.125 {
		t.Errorf("Estimate = %v, want passthrough", got)
	}
	if got := ReplayErrors(7, 100, 42); got != 7 {
		t.Errorf("ReplayErrors = %v, want passthrough", got)
	}
	TaskStart(1, 0) // must not panic
}

// Same seed and arguments must make identical decisions regardless of
// call order — the property that makes chaos runs reproducible at any -j.
func TestDeterminism(t *testing.T) {
	sample := func() []float64 {
		if err := Enable("sample-noise,sample-drop,sample-nan", 99, allClasses); err != nil {
			t.Fatal(err)
		}
		defer Disable()
		var out []float64
		for th := 0; th < 4; th++ {
			for lv := 0; lv < 6; lv++ {
				out = append(out, Estimate(th, lv, float64(lv)*0.01))
			}
		}
		return out
	}
	a, b := sample(), sample()
	for i := range a {
		same := a[i] == b[i] || (math.IsNaN(a[i]) && math.IsNaN(b[i]))
		if !same {
			t.Fatalf("run 1 vs 2 differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEstimateCorruptionsObserved(t *testing.T) {
	if err := Enable("sample-nan=0.9", 5, allClasses); err != nil {
		t.Fatal(err)
	}
	sawNaN := false
	for th := 0; th < 8 && !sawNaN; th++ {
		for lv := 0; lv < 6; lv++ {
			if math.IsNaN(Estimate(th, lv, 0.01)) {
				sawNaN = true
			}
		}
	}
	Disable()
	if !sawNaN {
		t.Error("sample-nan=0.9 never produced NaN over 48 estimates")
	}

	if err := Enable("sample-drop=0.9", 5, allClasses); err != nil {
		t.Fatal(err)
	}
	sawDrop := false
	for th := 0; th < 8 && !sawDrop; th++ {
		for lv := 0; lv < 6; lv++ {
			if Estimate(th, lv, 0.01) == -1 {
				sawDrop = true
			}
		}
	}
	Disable()
	if !sawDrop {
		t.Error("sample-drop=0.9 never produced the -1 sentinel")
	}
}

func TestReplayErrorsBounded(t *testing.T) {
	if err := Enable("replay-perturb=1", 7, allClasses); err != nil {
		t.Fatal(err)
	}
	defer Disable()
	perturbed := false
	for e := 0; e <= 10; e++ {
		got := ReplayErrors(e, 10, uint64(e))
		if got < e || got > 10 {
			t.Fatalf("ReplayErrors(%d, 10) = %d out of [errors, instrs]", e, got)
		}
		if got != e {
			perturbed = true
		}
	}
	if !perturbed {
		t.Error("replay-perturb=1 never changed an error count")
	}
	if got := ReplayErrors(3, 0, 0); got != 3 {
		t.Errorf("ReplayErrors with instrs=0 = %d, want passthrough", got)
	}
}

func TestTaskStartPanicsDeterministically(t *testing.T) {
	if err := Enable("task-panic=1", 11, allClasses); err != nil {
		t.Fatal(err)
	}
	defer Disable()
	panicked := func(task uint64, attempt int) (p bool) {
		defer func() {
			if v := recover(); v != nil {
				if !IsInjectedPanic(v) {
					t.Fatalf("panic value %v is not InjectedPanic", v)
				}
				p = true
			}
		}()
		TaskStart(task, attempt)
		return false
	}
	if !panicked(1, 0) {
		t.Fatal("task-panic=1 did not panic")
	}
	if panicked(1, 0) != panicked(1, 0) {
		t.Fatal("same (task, attempt) decided differently")
	}
}

func BenchmarkEstimateDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = Estimate(1, 2, 0.25)
	}
	_ = sink
}

func TestDisabledEstimateZeroAllocs(t *testing.T) {
	Disable()
	allocs := testing.AllocsPerRun(1000, func() {
		Estimate(1, 2, 0.25)
		ReplayErrors(3, 100, 7)
		TaskStart(9, 0)
	})
	if allocs != 0 {
		t.Errorf("disabled hooks allocate %v per run, want 0", allocs)
	}
}
