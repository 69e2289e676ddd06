package core

import (
	"math"
	"math/rand"
	"testing"
)

// testConfig returns a small platform: 3 voltages, 4 TSRs.
func testConfig() *Config {
	return &Config{
		Voltages: []float64{1.0, 0.8, 0.65},
		TNom: func(v float64) float64 {
			// Table-5.1-like: slower at lower voltage.
			switch {
			case v >= 1.0:
				return 1000
			case v >= 0.8:
				return 1390
			default:
				return 2630
			}
		},
		TSRs:     []float64{0.64, 0.78, 0.92, 1.0},
		CPenalty: 5,
	}
}

// randThreads builds threads with random piecewise error curves.
func randThreads(rng *rand.Rand, m int) []Thread {
	ths := make([]Thread, m)
	for i := range ths {
		thr := 0.7 + rng.Float64()*0.3  // error onset threshold
		peak := rng.Float64() * 0.3     // error probability at smallest r
		n := 1000 + rng.Float64()*20000 // instructions
		cpi := 1 + rng.Float64()*1.5
		ths[i] = Thread{N: n, CPIBase: cpi, Err: ConstErr(thr, peak)}
	}
	return ths
}

func TestValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Voltages = nil },
		func(c *Config) { c.Voltages = []float64{0.8, 1.0} },
		func(c *Config) { c.Voltages = []float64{1.0, -0.5} },
		func(c *Config) { c.TSRs = nil },
		func(c *Config) { c.TSRs = []float64{0.5, 0.9} }, // last != 1
		func(c *Config) { c.TSRs = []float64{0.9, 0.5, 1.0} },
		func(c *Config) { c.TSRs = []float64{-0.1, 1.0} },
		func(c *Config) { c.TNom = nil },
		func(c *Config) { c.CPenalty = -1 },
	}
	for i, mut := range bad {
		c := testConfig()
		mut(c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

func TestSPIMatchesEquation41(t *testing.T) {
	c := testConfig()
	th := Thread{N: 100, CPIBase: 1.5, Err: ConstErr(0.9, 0.1)}
	v, r := 1.0, 0.64
	perr := th.Err(r)
	want := r * c.TNom(v) * (perr*c.CPenalty + th.CPIBase)
	if got := c.SPI(th, v, r); math.Abs(got-want) > 1e-9 {
		t.Fatalf("SPI = %v, want %v", got, want)
	}
	// At r=1 there are no errors: SPI = tnom * CPIbase.
	if got, want := c.SPI(th, v, 1), c.TNom(v)*th.CPIBase; math.Abs(got-want) > 1e-9 {
		t.Fatalf("SPI(r=1) = %v, want %v", got, want)
	}
}

func TestEnergyMatchesEquation43(t *testing.T) {
	c := testConfig()
	th := Thread{N: 100, CPIBase: 2, Err: ZeroErr}
	got := c.ThreadEnergy(th, 0.8, 1)
	want := 0.8 * 0.8 * 100 * 2.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("energy = %v, want %v", got, want)
	}
}

func TestEvaluateTExecIsMax(t *testing.T) {
	c := testConfig()
	ths := []Thread{
		{N: 1000, CPIBase: 1, Err: ZeroErr},
		{N: 5000, CPIBase: 1, Err: ZeroErr},
	}
	a := uniformAssignment(2, 0, len(c.TSRs)-1)
	m := c.Evaluate(ths, a, 1)
	if m.TExec != m.ThreadTimes[1] {
		t.Fatalf("TExec %v must equal slowest thread time %v", m.TExec, m.ThreadTimes[1])
	}
	if m.ThreadTimes[0] >= m.ThreadTimes[1] {
		t.Fatal("thread 0 must be faster")
	}
	if m.Cost != m.Energy+1*m.TExec {
		t.Fatal("cost must be energy + theta*texec")
	}
}

// The central optimality property: SynTS-Poly matches exhaustive search on
// random instances (Lemma 4.2.1).
func TestPolyOptimalAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := testConfig()
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(2) // 2..3 threads keeps brute force fast
		ths := randThreads(rng, m)
		for _, theta := range []float64{0, 0.1, 1, 10, 1000} {
			_, mp := SolvePoly(c, ths, theta)
			_, mb := SolveBrute(c, ths, theta)
			if mp.Cost > mb.Cost*(1+1e-9)+1e-9 {
				t.Fatalf("trial %d theta %v: Poly cost %v > brute cost %v", trial, theta, mp.Cost, mb.Cost)
			}
			if mp.Cost < mb.Cost*(1-1e-9)-1e-9 {
				t.Fatalf("trial %d theta %v: Poly cost %v below brute optimum %v (bug in brute?)",
					trial, theta, mp.Cost, mb.Cost)
			}
		}
	}
}

func TestPolyFourThreadsAgainstBrute(t *testing.T) {
	if testing.Short() {
		t.Skip("brute force over 4 threads is slow")
	}
	rng := rand.New(rand.NewSource(99))
	c := testConfig()
	for trial := 0; trial < 5; trial++ {
		ths := randThreads(rng, 4)
		_, mp := SolvePoly(c, ths, 1)
		_, mb := SolveBrute(c, ths, 1)
		if math.Abs(mp.Cost-mb.Cost) > 1e-6*mb.Cost {
			t.Fatalf("trial %d: Poly %v vs brute %v", trial, mp.Cost, mb.Cost)
		}
	}
}

func TestNominalBaseline(t *testing.T) {
	c := testConfig()
	ths := randThreads(rand.New(rand.NewSource(2)), 4)
	a, m := SolveNominal(c, ths, 1)
	for i := range ths {
		if a.VIdx[i] != 0 || c.TSRs[a.RIdx[i]] != 1 {
			t.Fatalf("nominal must run at top voltage, r=1")
		}
	}
	if m.TExec <= 0 || m.Energy <= 0 {
		t.Fatal("nominal metrics must be positive")
	}
}

func TestNoTSNeverSpeculates(t *testing.T) {
	c := testConfig()
	ths := randThreads(rand.New(rand.NewSource(3)), 4)
	a, _ := SolveNoTS(c, ths, 1)
	for i := range ths {
		if c.TSRs[a.RIdx[i]] != 1 {
			t.Fatalf("No-TS assigned r=%v to thread %d", c.TSRs[a.RIdx[i]], i)
		}
	}
}

func TestSolverDominanceOrdering(t *testing.T) {
	// SynTS is jointly optimal, so its cost can never exceed any baseline's
	// cost at the same theta.
	rng := rand.New(rand.NewSource(4))
	c := testConfig()
	for trial := 0; trial < 30; trial++ {
		ths := randThreads(rng, 4)
		for _, theta := range []float64{0.01, 1, 100} {
			_, syn := SolvePoly(c, ths, theta)
			for _, s := range Solvers()[1:] {
				_, m := s.Solve(c, ths, theta)
				if syn.Cost > m.Cost+1e-9 {
					t.Fatalf("trial %d theta %v: SynTS cost %v exceeds %s cost %v",
						trial, theta, syn.Cost, s.Name, m.Cost)
				}
			}
		}
	}
}

func TestSynTSExploitsHeterogeneity(t *testing.T) {
	// Classic Fig 3.6 scenario: one error-prone thread, three clean ones,
	// perfectly balanced otherwise. Per-core TS treats all alike; SynTS
	// should put the clean threads at lower voltage and win on energy
	// without losing time.
	c := testConfig()
	critical := Thread{N: 10000, CPIBase: 1, Err: ConstErr(0.95, 0.5)}
	clean := Thread{N: 10000, CPIBase: 1, Err: ConstErr(0.66, 0.01)}
	ths := []Thread{critical, clean, clean, clean}
	theta := 20.0
	_, syn := SolvePoly(c, ths, theta)
	_, pc := SolvePerCore(c, ths, theta)
	if syn.Cost >= pc.Cost {
		t.Fatalf("SynTS cost %v must beat Per-core TS cost %v on heterogeneous threads", syn.Cost, pc.Cost)
	}
	if syn.EDP() >= pc.EDP()*1.001 {
		t.Errorf("SynTS EDP %v should not exceed Per-core EDP %v here", syn.EDP(), pc.EDP())
	}
}

func TestPolyHandlesSingleThread(t *testing.T) {
	c := testConfig()
	ths := []Thread{{N: 1000, CPIBase: 1, Err: ConstErr(0.8, 0.05)}}
	_, mp := SolvePoly(c, ths, 1)
	_, mpc := SolvePerCore(c, ths, 1)
	// With one thread, SynTS degenerates to per-core TS.
	if math.Abs(mp.Cost-mpc.Cost) > 1e-9*mpc.Cost {
		t.Fatalf("single-thread SynTS %v != per-core %v", mp.Cost, mpc.Cost)
	}
}

func TestPolyPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty threads")
		}
	}()
	SolvePoly(testConfig(), nil, 1)
}

func TestConstErrShape(t *testing.T) {
	f := ConstErr(0.8, 0.2)
	if f(1) != 0 || f(0.9) != 0 || f(0.8) != 0 {
		t.Fatal("ConstErr must be 0 at/above threshold")
	}
	if f(0.4) <= f(0.6) {
		t.Fatal("ConstErr must increase as r decreases")
	}
	if got := f(0); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("peak = %v", got)
	}
}

func TestEstimatedErrFuncLookup(t *testing.T) {
	c := testConfig()
	rates := []float64{0.2, 0.1, 0.05, 0.0}
	f := EstimatedErrFunc(c, rates)
	for k, r := range c.TSRs {
		if got := f(r); got != rates[k] {
			t.Errorf("f(%v) = %v, want %v", r, got, rates[k])
		}
	}
	// Nearest-point behaviour between samples.
	if got := f(0.65); got != 0.2 {
		t.Errorf("f(0.65) = %v, want nearest sample 0.2", got)
	}
}

func TestSamplingSchedule(t *testing.T) {
	c := testConfig()
	slots := SamplingSchedule(c, 4000)
	if len(slots) != len(c.TSRs) {
		t.Fatalf("slots = %d", len(slots))
	}
	var sum float64
	for k, sl := range slots {
		if sl.RIdx != k {
			t.Errorf("slot %d covers rIdx %d", k, sl.RIdx)
		}
		sum += sl.Instrs
	}
	if math.Abs(sum-4000) > 1e-9 {
		t.Fatalf("schedule covers %v instructions, want 4000", sum)
	}
}

// uniformBudget gives each of n threads the same sampling budget.
func uniformBudget(n int, nSamp float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = nSamp
	}
	return out
}

func TestSolveOnlinePerfectEstimatesMatchOffline(t *testing.T) {
	// With NSamp = 0 and estimates equal to the true rates, online must
	// reproduce the offline decision and cost exactly.
	c := testConfig()
	ths := randThreads(rand.New(rand.NewSource(5)), 4)
	est := func(i, k int) float64 { return ths[i].Err(c.TSRs[k]) }
	res := SolveOnline(c, ths, est, OnlineConfig{NSamp: make([]float64, len(ths))}, 1)
	_, off := SolvePoly(c, ths, 1)
	if math.Abs(res.Metrics.Cost-off.Cost) > 1e-9*off.Cost {
		t.Fatalf("online (no sampling, perfect est) cost %v != offline %v", res.Metrics.Cost, off.Cost)
	}
}

func TestSolveOnlineChargesSamplingOverhead(t *testing.T) {
	c := testConfig()
	ths := randThreads(rand.New(rand.NewSource(6)), 4)
	est := func(i, k int) float64 { return ths[i].Err(c.TSRs[k]) }
	res := SolveOnline(c, ths, est, OnlineConfig{NSamp: uniformBudget(len(ths), 500)}, 1)
	_, off := SolvePoly(c, ths, 1)
	if res.Metrics.Cost < off.Cost*(1-1e-9) {
		t.Fatalf("online cost %v cannot beat offline %v", res.Metrics.Cost, off.Cost)
	}
	if res.SamplingEnergy <= 0 {
		t.Fatal("sampling energy must be positive with NSamp > 0")
	}
	for i, st := range res.SamplingTime {
		if st <= 0 {
			t.Fatalf("thread %d sampling time %v", i, st)
		}
	}
}

func TestSolveOnlineNoisyEstimatesStillIdentifyCritical(t *testing.T) {
	// Estimates off by 20% multiplicative noise must still pick a decent
	// configuration: within 25% of offline cost (the thesis reports ~10%
	// average overhead including sampling).
	c := testConfig()
	rng := rand.New(rand.NewSource(7))
	ths := randThreads(rng, 4)
	est := func(i, k int) float64 {
		noise := 0.8 + 0.4*rng.Float64()
		return ths[i].Err(c.TSRs[k]) * noise
	}
	res := SolveOnline(c, ths, est, OnlineConfig{NSamp: uniformBudget(len(ths), 100)}, 1)
	_, off := SolvePoly(c, ths, 1)
	if res.Metrics.Cost > off.Cost*1.25 {
		t.Fatalf("noisy online cost %v too far above offline %v", res.Metrics.Cost, off.Cost)
	}
}

// SolveGuarded pins each thread whose rates the guard rejects to the
// nominal point and solves the rest on their estimates; without a guard
// it is SolvePoly over the estimated curves.
func TestSolveGuardedPinsRejectedThreads(t *testing.T) {
	c := testConfig()
	rates := [][]float64{
		{0.3, 0.1, 0.01, 0},
		{math.NaN(), 0, 0, 0},
		{0.1, 0.3, 0.01, 0},
		{0.2, 0.05, 0, 0},
	}
	threads := func() []Thread {
		ths := make([]Thread, len(rates))
		for i := range ths {
			ths[i] = Thread{N: 5000 * float64(i+1), CPIBase: 1.2}
		}
		return ths
	}
	ths := threads()
	a, reasons := SolveGuarded(c, &GuardPolicy{}, ths, rates, 1)
	for i, want := range []string{"", GuardNaN, GuardNonMonotone, ""} {
		if reasons[i] != want {
			t.Errorf("thread %d: reason %q, want %q", i, reasons[i], want)
		}
		if want == "" {
			continue
		}
		if a.VIdx[i] != 0 || a.RIdx[i] != len(c.TSRs)-1 {
			t.Errorf("rejected thread %d at (v %d, r %d), want the nominal point", i, a.VIdx[i], a.RIdx[i])
		}
		if ths[i].Err(c.TSRs[0]) != 1 || ths[i].Err(1) != 0 {
			t.Errorf("rejected thread %d does not solve on the pessimal curve", i)
		}
	}

	admitted := [][]float64{rates[0], rates[3]}
	ths = threads()[:2]
	a, reasons = SolveGuarded(c, nil, ths, admitted, 1)
	ref := threads()[:2]
	for i := range ref {
		ref[i].Err = EstimatedErrFunc(c, admitted[i])
	}
	want, _ := SolvePoly(c, ref, 1)
	if reasons != nil {
		t.Errorf("no guard: reasons %v, want nil", reasons)
	}
	for i := range want.VIdx {
		if a.VIdx[i] != want.VIdx[i] || a.RIdx[i] != want.RIdx[i] {
			t.Errorf("no guard: thread %d at (%d, %d), SolvePoly says (%d, %d)", i, a.VIdx[i], a.RIdx[i], want.VIdx[i], want.RIdx[i])
		}
	}
}

// GuardPolicy.Check returns each of its five rejection reasons, and its
// two thresholds accept a rate exactly at the bound and reject the next
// float64 above it. The divergence rows use a baseline of 0.25, so the
// bound 0.25 + DefaultMaxDivergence = 0.75 is exact.
func TestGuardCheckReasonsAndThresholds(t *testing.T) {
	c := testConfig()
	flat := func(base float64) func(int) (float64, bool) {
		return func(int) (float64, bool) { return base, true }
	}
	none := func(int) (float64, bool) { return 0, false }
	nom := DefaultMaxErrAtNominal
	base := 0.25
	div := base + DefaultMaxDivergence // the float64 sum Check compares with
	if div != 0.75 {
		t.Fatalf("0.25 + DefaultMaxDivergence = %v, want exactly 0.75", div)
	}
	for _, tc := range []struct {
		name     string
		rates    []float64
		baseline func(int) (float64, bool)
		want     string
	}{
		{"plausible", []float64{0.3, 0.1, 0.01, 0}, nil, ""},
		{"nan", []float64{math.NaN(), 0, 0, 0}, nil, GuardNaN},
		{"inf", []float64{math.Inf(1), 0, 0, 0}, nil, GuardNaN},
		{"lost measurement", []float64{-1, -1, -1, -1}, nil, GuardOutOfRange},
		{"above one", []float64{1.5, 0.1, 0, 0}, nil, GuardOutOfRange},
		{"non-monotone", []float64{0.1, 0.3, 0.01, 0}, nil, GuardNonMonotone},
		{"nominal at bound", []float64{0.1, 0.01, 0.001, nom}, nil, ""},
		{"nominal above bound", []float64{0.1, 0.01, 0.001, math.Nextafter(nom, 1)}, nil, GuardAtNominal},
		{"divergence at bound", []float64{div, 0.5, 0.25, 0}, flat(base), ""},
		{"divergence above bound", []float64{math.Nextafter(div, 1), 0.5, 0.25, 0}, flat(base), GuardDivergence},
		{"no baseline yet", []float64{0.9, 0.5, 0.25, 0}, none, ""},
	} {
		g := &GuardPolicy{Baseline: tc.baseline}
		if got := g.Check(c, tc.rates); got != tc.want {
			t.Errorf("%s: Check(%v) = %q, want %q", tc.name, tc.rates, got, tc.want)
		}
	}
}

func TestComputeOverheads(t *testing.T) {
	in := DefaultOverheadInputs()
	in.CombArea = 24000
	in.PipeRegBits = 200
	ov, err := ComputeOverheads(in)
	if err != nil {
		t.Fatal(err)
	}
	if ov.Area <= 0 || ov.Area > 0.15 {
		t.Errorf("area overhead %v outside plausible (0, 15%%]", ov.Area)
	}
	if ov.Power <= 0 || ov.Power > 0.15 {
		t.Errorf("power overhead %v outside plausible (0, 15%%]", ov.Power)
	}
	// Sampling must dominate power overhead (§6.3's observation).
	if ov.Power < in.SamplingFraction*in.SamplingEnergyFactor {
		t.Error("power overhead must include the sampling term")
	}
}

func TestComputeOverheadsRejectsBadInputs(t *testing.T) {
	in := DefaultOverheadInputs()
	if _, err := ComputeOverheads(in); err == nil {
		t.Error("zero CombArea must be rejected")
	}
	in.CombArea = 100
	in.PipeRegBits = 10
	in.RazorFFArea = 1
	if _, err := ComputeOverheads(in); err == nil {
		t.Error("RazorFFArea < FFArea must be rejected")
	}
}
