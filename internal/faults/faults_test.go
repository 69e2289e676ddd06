package faults

import (
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"
)

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
		{spec: "bogus", wantErr: "unknown class"},
		// Retired class names are refused, not silently ignored.
		{spec: "ledger-spill-torn", wantErr: "unknown class"},
		{spec: "backend-down", wantErr: "unknown class"},
		{spec: "backend-flap", wantErr: "unknown class"},
		{spec: "resp-torn", wantErr: "unknown class"},
		{spec: "net-slow", wantErr: "unknown class"},
		{spec: "sample-noise=0", wantErr: "want a float in (0,1]"},
		{spec: "sample-noise=1.5", wantErr: "want a float in (0,1]"},
		{spec: "sample-noise=x", wantErr: "want a float in (0,1]"},
		{spec: "sample-noise,,task-panic", wantErr: "empty class"},
		{spec: "sample-noise,sample-noise", wantErr: "given twice"},
	}
	for _, tc := range cases {
		c, err := parseSpec(tc.spec, 1)
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
	c, err := parseSpec("task-panic,sample-noise", 1)
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
		if err := Enable("sample-noise,sample-drop,sample-nan", 99); err != nil {
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
	if err := Enable("sample-nan=0.9", 5); err != nil {
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

	if err := Enable("sample-drop=0.9", 5); err != nil {
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
	if err := Enable("replay-perturb=1", 7); err != nil {
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
	if err := Enable("task-panic=1", 11); err != nil {
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

// ckpt-write-fail decisions are pure functions of the experiment name:
// stable across repeated calls, with both outcomes represented at an
// intermediate rate.
func TestCkptSaveFailDeterministicByName(t *testing.T) {
	if err := Enable(CkptWriteFail+"=0.5", 11); err != nil {
		t.Fatal(err)
	}
	defer Disable()
	first := map[string]bool{}
	fired := 0
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("exp%d", i)
		first[name] = CkptSaveFail(name)
		if first[name] {
			fired++
		}
	}
	if fired == 0 || fired == 40 {
		t.Fatalf("rate 0.5 fired on %d/40 names; decisions are not spread", fired)
	}
	for name, want := range first {
		if CkptSaveFail(name) != want {
			t.Fatalf("decision for %q changed between calls", name)
		}
	}
}

// The I/O fault hook must be a strict no-op while injection is disabled.
func TestIOFaultHooksDisabledIdentity(t *testing.T) {
	Disable()
	if CkptSaveFail("table5.1") {
		t.Error("CkptSaveFail fired while disabled")
	}
}
