package razor

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"synts/internal/cpu"
	"synts/internal/simprof"
	"synts/internal/telemetry"
	"synts/internal/trace"
	"synts/internal/workload"
)

// replay runs a window of sensitized delays through the one replay loop
// at clock period tclk, compacted as a profile build compacts it.
func replay(delays []float64, tclk, cPenalty float64) Result {
	p := trace.NewProfile(0, delays)
	return replayAttr(p.Codes, nil, p.Cut(tclk), tclk, cPenalty, nil)
}

func TestReplayCountsErrors(t *testing.T) {
	delays := []float64{10, 50, 90, 130}
	res := replay(delays, 100, 5)
	if res.Instructions != 4 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
	if res.Errors != 1 {
		t.Fatalf("errors = %d, want 1 (only the 130 delay)", res.Errors)
	}
	if res.Cycles != 4+5 {
		t.Fatalf("cycles = %v, want 9", res.Cycles)
	}
	if got := res.ErrorRate(); got != 0.25 {
		t.Fatalf("error rate = %v", got)
	}
}

func TestReplayBoundaryIsSafe(t *testing.T) {
	// A delay exactly equal to the clock period latches correctly.
	res := replay([]float64{100}, 100, 5)
	if res.Errors != 0 {
		t.Fatal("delay == tclk must not be an error")
	}
}

func TestReplayEmptyAndPanics(t *testing.T) {
	if r := replay(nil, 100, 5); r.Cycles != 0 || r.ErrorRate() != 0 {
		t.Fatal("empty replay must be all zeros")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive tclk did not panic")
		}
	}()
	replay([]float64{1}, 0, 5)
}

// The load-bearing consistency check: the replay's observed error rate at
// ratio r equals Profile.Err(r) exactly (both count delays > r*TCrit), so
// the analytic Eq. 4.1 cycles match the cycle-level simulation exactly.
func TestReplayMatchesAnalyticSPI(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 4, 1, 9)
	profs, err := trace.BuildProfilesScopedCtx(context.Background(), "", streams, trace.SimpleALU, cpu.DefaultL1(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ths := range profs {
		for _, p := range ths {
			for _, r := range []float64{0.64, 0.8, 0.95, 1.0} {
				res, analytic := ReplayProfileScoped(telemetry.Scope{}, "", p, r, 5)
				if math.Abs(res.Cycles-analytic) > 1e-6*math.Max(analytic, 1) {
					t.Fatalf("thread %d interval %d r=%v: replay %v cycles, Eq 4.1 %v",
						p.Thread, p.Interval, r, res.Cycles, analytic)
				}
				if got, want := res.ErrorRate(), p.Err(r); math.Abs(got-want) > 1e-12 {
					t.Fatalf("error rate %v != Err(%v) = %v", got, r, want)
				}
			}
		}
	}
}

// syntheticProfile draws n delays uniformly from [0, scale*tcrit).
func syntheticProfile(rng *rand.Rand, n int, tcrit, scale float64) *trace.Profile {
	delays := make([]float64, n)
	for i := range delays {
		delays[i] = rng.Float64() * tcrit * scale
	}
	return cpiOneProfile(tcrit, delays)
}

func cpiOneProfile(tcrit float64, delays []float64) *trace.Profile {
	p := trace.NewProfile(tcrit, delays)
	p.CPIBase = 1
	return p
}

func TestSamplingEstimatorConvergesToTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Uniform delays: Err(r) = 1 - r, an easy truth to estimate.
	p := syntheticProfile(rng, 60000, 100, 1)
	tsrs := []float64{0.64, 0.8, 1.0}
	est := SamplingEstimator(telemetry.Scope{}, []*trace.Profile{p}, tsrs, []int{60000}, 5, SamplingGranule)
	for k, r := range tsrs {
		got := est(0, k)
		want := 1 - r
		if math.Abs(got-want) > 0.02 {
			t.Errorf("estimated err at r=%v is %v, want ~%v", r, got, want)
		}
	}
}

func TestSamplingEstimatorUsesOnlyPrefix(t *testing.T) {
	// First half of the trace error-free, second half always erring at
	// r<1. Sampling only the first half must report ~0.
	n := 1000
	delays := make([]float64, n)
	for i := n / 2; i < n; i++ {
		delays[i] = 99
	}
	p := cpiOneProfile(100, delays)
	est := SamplingEstimator(telemetry.Scope{}, []*trace.Profile{p}, []float64{0.5, 1.0}, []int{n / 2}, 5, SamplingGranule)
	if got := est(0, 0); got != 0 {
		t.Fatalf("prefix-only sampling must see no errors, got %v", got)
	}
}

func TestSamplingEstimatorShortInterval(t *testing.T) {
	// NSamp larger than the interval: clamp, don't panic.
	rng := rand.New(rand.NewSource(6))
	p := syntheticProfile(rng, 30, 100, 1)
	est := SamplingEstimator(telemetry.Scope{}, []*trace.Profile{p}, []float64{0.5, 0.75, 1.0}, []int{1000}, 5, SamplingGranule)
	for k := 0; k < 3; k++ {
		if r := est(0, k); r < 0 || r > 1 {
			t.Fatalf("rate out of range: %v", r)
		}
	}
}

// Property: the sampling estimate is within a few points of the full-trace
// truth for statistically stationary delay streams, and always identifies
// the more error-prone of two threads (the "critical thread is always
// identified" claim of §6.2).
func TestSamplingIdentifiesCriticalThread(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		hot := syntheticProfile(rng, 8000, 100, 1)
		// Scale down the cold thread's delays so it errs less.
		cold := syntheticProfile(rng, 8000, 100, 0.5)
		tsrs := []float64{0.64, 0.8, 1.0}
		est := SamplingEstimator(telemetry.Scope{}, []*trace.Profile{hot, cold}, tsrs, []int{800, 800}, 5, SamplingGranule)
		if est(0, 0) <= est(1, 0) {
			t.Fatalf("trial %d: sampling failed to identify the critical thread", trial)
		}
	}
}

// TestErrorRateNaNFree pins the degenerate-denominator contract for both
// replay result types: an empty window must read as a 0.0 error rate, not
// NaN, because these rates feed straight into energy models and the
// telemetry ledger where NaN would poison every downstream aggregate.
func TestErrorRateNaNFree(t *testing.T) {
	cases := []struct {
		name string
		rate float64
		want float64
	}{
		{"empty Result", Result{}.ErrorRate(), 0},
		{"empty JointResult", JointResult{}.ErrorRate(), 0},
		{"half errors", Result{Instructions: 4, Errors: 2}.ErrorRate(), 0.5},
		{"joint half errors", JointResult{Instructions: 4, Errors: 2}.ErrorRate(), 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if math.IsNaN(tc.rate) {
				t.Fatal("ErrorRate() = NaN")
			}
			if tc.rate != tc.want {
				t.Fatalf("ErrorRate() = %v, want %v", tc.rate, tc.want)
			}
		})
	}
}

// The reconciliation invariant behind `obscheck -simprof`: with the
// profiler and ledger both recording, a scoped replay's per-op
// attribution must sum exactly to the replay event it emits — errors
// exactly, cycles (per-op latch cycles + replay penalties + the "(stall)"
// frame) exactly — and the Result must be bit-identical to the
// profiler-off replay.
func TestReplayProfileScopedSimprofReconciles(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 2, 1, 2016)
	profs, err := trace.BuildProfilesScopedCtx(context.Background(), "", streams, trace.SimpleALU, cpu.DefaultL1(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := profs[0][0]
	const r, cPenalty = 0.55, 5.0
	sc := telemetry.Scope{Bench: "radix", Stage: "SimpleALU"}

	simprof.Disable()
	telemetry.Disable()
	refRes, refAn := ReplayProfileScoped(telemetry.Scope{}, "", p, r, cPenalty)

	simprof.Enable()
	defer simprof.Disable()
	telemetry.Enable()
	defer telemetry.Disable()
	res, an := ReplayProfileScoped(sc, "SynTS", p, r, cPenalty)
	if res != refRes || an != refAn {
		t.Fatalf("attribution perturbed the replay: %+v / %v, want %+v / %v", res, an, refRes, refAn)
	}
	if res.Errors == 0 {
		t.Fatal("fixture replay produced no errors; pick a more aggressive r")
	}

	var errSum int64
	var cycSum float64
	for _, e := range simprof.Snapshot() {
		if e.Kernel != "radix" || e.Phase != simprof.PhaseReplay {
			t.Fatalf("unexpected attribution entry %+v", e)
		}
		if e.Core != p.Thread || e.Interval != p.Interval || e.Stage != "SimpleALU" {
			t.Fatalf("entry attributed to wrong coordinates: %+v", e)
		}
		errSum += e.Errors
		cycSum += e.Cycles
	}
	if errSum != int64(res.Errors) {
		t.Errorf("profiler errors = %d, replay errors = %d", errSum, res.Errors)
	}
	if math.Abs(cycSum-res.Cycles) > 1e-9*math.Abs(res.Cycles) {
		t.Errorf("profiler cycles = %v, replay cycles = %v", cycSum, res.Cycles)
	}

	evs := telemetry.Events()
	if len(evs) != 1 || evs[0].Kind != telemetry.KindReplay {
		t.Fatalf("expected exactly one replay event, got %+v", evs)
	}
	if got := int64(evs[0].Replays); got != errSum {
		t.Errorf("ledger replays = %d, profiler errors = %d", got, errSum)
	}
	if math.Abs(evs[0].Cycles-cycSum) > 1e-9*math.Abs(cycSum) {
		t.Errorf("ledger cycles = %v, profiler cycles = %v", evs[0].Cycles, cycSum)
	}
}

// floatReplay is the Razor replay loop as it ran over float64 delays
// before profiles were compacted into codes: the reference the code
// compare must reproduce exactly.
func floatReplay(delays []float64, tclk, cPenalty float64) Result {
	res := Result{Instructions: len(delays)}
	for _, d := range delays {
		res.Cycles++
		if d > tclk {
			res.Errors++
			res.Cycles += cPenalty
		}
	}
	return res
}

// spreadWindow returns n shuffled delays holding exactly distinct
// different multiples of step from 0 (n >= distinct).
func spreadWindow(rng *rand.Rand, n, distinct int, step float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i%distinct) * step
	}
	rng.Shuffle(n, func(a, b int) { w[a], w[b] = w[b], w[a] })
	return w
}

// stageWindows returns cases of three same-length stage windows: empty,
// all-zero, random windows drawing from a few levels (heavy duplicates)
// that include 0, and windows of 256, 65,536 and 65,537 distinct delays,
// whose codes take 1, 2 and 4 bytes, rotated so the first stage takes
// each width once.
func stageWindows(rng *rand.Rand) [][3][]float64 {
	cases := [][3][]float64{{nil, nil, nil}, {make([]float64, 40), make([]float64, 40), make([]float64, 40)}}
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(2000)
		var c [3][]float64
		for s := range c {
			levels := make([]float64, 1+rng.Intn(10))
			for k := 1; k < len(levels); k++ {
				levels[k] = float64(1+rng.Intn(64)) * 0.125
			}
			c[s] = make([]float64, n)
			for i := range c[s] {
				c[s][i] = levels[rng.Intn(len(levels))]
			}
		}
		cases = append(cases, c)
	}
	const n = 1<<16 + 1000
	wide := [3][]float64{
		spreadWindow(rng, n, 1<<8, 1.0/32), // tops at 7.97
		spreadWindow(rng, n, 1<<16, 1.0/8192),
		spreadWindow(rng, n, 1<<16+1, 1.0/8192), // tops at 8
	}
	for s := range wide {
		cases = append(cases, [3][]float64{wide[s], wide[(s+1)%3], wide[(s+2)%3]})
	}
	return cases
}

// levelRatios returns r = delay/tcrit for the positive levels of p a
// check visits: every one of a small table; for a large one a stride
// through it plus the levels either side of each code width's limit and
// the top, where the cut is len(Levels).
func levelRatios(p *trace.Profile, tcrit float64) []float64 {
	n := len(p.Levels)
	var rs []float64
	for k, l := range p.Levels {
		edge := k == 255 || k == 256 || k == 1<<16-1 || k == 1<<16 || k == n-1
		if l.Delay > 0 && (n <= 64 || k%(n/32) == 0 || edge) {
			rs = append(rs, l.Delay/tcrit)
		}
	}
	return rs
}

// Differential check of every replay over compact profiles against the
// float64 reference: the replay loop, ReplayProfileScoped (cycles and
// Eq. 4.1), the sampling phase's per-level counts and JointReplayScoped,
// at clock periods exactly equal to a delay level and at the paper's
// TSRs, over codes of every width.
func TestReplaysMatchFloatReference(t *testing.T) {
	tcrits := [3]float64{8, 16, 4} // powers of two: r*tcrit lands exactly on a level
	const cPenalty, cpiBase, granule = 5.0, 1.25, 3
	rng := rand.New(rand.NewSource(16))
	for ci, c := range stageWindows(rng) {
		var ps [3]*trace.Profile
		for s := range c {
			ps[s] = trace.NewProfile(tcrits[s], c[s])
			ps[s].CPIBase = cpiBase
		}
		rs := append([]float64{0.64, 0.784, 1.0}, levelRatios(ps[0], tcrits[0])...)
		n := len(c[0])
		for _, r := range rs {
			tclk := r * tcrits[0]
			want := floatReplay(c[0], tclk, cPenalty)
			if got := replayAttr(ps[0].Codes, nil, ps[0].Cut(tclk), tclk, cPenalty, nil); got != want {
				t.Fatalf("case %d tclk %v: Replay %+v, reference %+v", ci, tclk, got, want)
			}
			res, analytic := ReplayProfileScoped(telemetry.Scope{}, "", ps[0], r, cPenalty)
			stall := (cpiBase - 1) * float64(n)
			wantErr := 0.0
			if n > 0 {
				wantErr = float64(want.Errors) / float64(n)
			}
			if res.Errors != want.Errors || res.Cycles != want.Cycles+stall ||
				analytic != float64(n)*(wantErr*cPenalty+cpiBase) {
				t.Fatalf("case %d r %v: ReplayProfile %+v / %v, reference %+v", ci, r, res, analytic, want)
			}

			joint, err := JointReplayScoped("", nil, ps[:], r)
			if err != nil {
				t.Fatal(err)
			}
			wantJoint := JointResult{Instructions: n, StageErrors: make([]int, 3)}
			for i := 0; i < n; i++ {
				flagged := false
				for s := range c {
					if c[s][i] > r*tcrits[s] {
						wantJoint.StageErrors[s]++
						flagged = true
					}
				}
				if flagged {
					wantJoint.Errors++
				}
			}
			if joint.Errors != wantJoint.Errors || !reflect.DeepEqual(joint.StageErrors, wantJoint.StageErrors) {
				t.Fatalf("case %d r %v: JointReplay %+v, reference %+v", ci, r, joint, wantJoint)
			}
		}

		budget := rng.Intn(n + 10)
		st := samplingStats(telemetry.Scope{}, ps[:1], rs, []int{budget}, cPenalty, granule)[0]
		errs, counts, cycles := make([]int, len(rs)), make([]int, len(rs)), make([]float64, len(rs))
		for g := 0; g*granule < min(budget, n); g++ {
			k := g % len(rs)
			lo, hi := g*granule, min((g+1)*granule, budget, n)
			res := floatReplay(c[0][lo:hi], rs[k]*tcrits[0], cPenalty)
			errs[k] += res.Errors
			counts[k] += res.Instructions
			cycles[k] += res.Cycles
		}
		if !reflect.DeepEqual(st.Errs, errs) || !reflect.DeepEqual(st.Counts, counts) || !reflect.DeepEqual(st.Cycles, cycles) {
			t.Fatalf("case %d: sampling errs %v counts %v cycles %v, reference %v %v %v",
				ci, st.Errs, st.Counts, st.Cycles, errs, counts, cycles)
		}
	}
}
