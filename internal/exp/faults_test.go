package exp

import (
	"context"
	"testing"

	"synts/internal/faults"
	"synts/internal/telemetry"
	"synts/internal/trace"
)

// runOnlineFallbacks runs online SynTS over every interval of b with the
// ledger recording and returns the fallback events observed.
func runOnlineFallbacks(t *testing.T, b *Bench) []telemetry.Event {
	t.Helper()
	telemetry.Enable()
	defer telemetry.Disable()
	cfg := Platform(trace.SimpleALU, b.Opts)
	ivs, err := b.Intervals(trace.SimpleALU)
	if err != nil {
		t.Fatal(err)
	}
	theta := ThetaGrid(cfg, ivs, []float64{1})[0]
	if _, err := SolveOnlineAllCtx(context.Background(), b, cfg, trace.SimpleALU, theta); err != nil {
		t.Fatal(err)
	}
	var fb []telemetry.Event
	for _, e := range telemetry.Events() {
		if e.Kind == telemetry.KindFallback {
			fb = append(fb, e)
		}
	}
	return fb
}

// Each sampling-path fault class must trip the guard band somewhere in the
// run: corrupted estimates degrade the affected cores to nominal instead of
// driving the schedule, and each degradation lands in the ledger as a valid
// fallback event.
func TestSolveOnlineFallbackUnderEachFaultClass(t *testing.T) {
	b := loadBench(t, "ocean", testOptions())
	for _, spec := range []string{"sample-nan=1", "sample-drop=1", "sample-noise=1", "replay-perturb=1"} {
		t.Run(spec, func(t *testing.T) {
			if err := faults.Enable(spec, 42, []string{faults.SampleNaN, faults.SampleDrop, faults.SampleNoise, faults.ReplayPerturb}); err != nil {
				t.Fatal(err)
			}
			defer faults.Disable()
			fb := runOnlineFallbacks(t, b)
			if len(fb) == 0 {
				t.Fatalf("no fallback events under -chaos %s", spec)
			}
			for _, e := range fb {
				if err := e.Validate(); err != nil {
					t.Errorf("invalid fallback event: %v", err)
				}
			}
		})
	}
}

// The guard checks are chosen to be false-positive-free on genuine
// estimates: with the injector off the guarded run must never fall back
// (this is what keeps report output identical to an unguarded run).
func TestSolveOnlineNoFallbackWithChaosOff(t *testing.T) {
	faults.Disable()
	b := loadBench(t, "ocean", testOptions())
	if fb := runOnlineFallbacks(t, b); len(fb) != 0 {
		t.Fatalf("%d fallback events with chaos off, want 0 (first: %+v)", len(fb), fb[0])
	}
}
