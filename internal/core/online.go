package core

import (
	"fmt"
	"math"
)

// OnlineConfig holds the knobs of the online sampling phase (§4.3). All
// threads sample at the nominal chip voltage Voltages[0], as the thesis
// does.
type OnlineConfig struct {
	// NSamp holds each thread's sampling budget: the instructions it
	// spends sampling at the start of the barrier interval. The thesis
	// uses 10% of the interval; each thread samples a fraction of its own
	// work, since with strongly imbalanced intervals a single budget either
	// starves the large threads' estimates or burns a disproportionate
	// share of the small threads' instructions at the sampling voltage.
	NSamp []float64
	// Guard optionally screens the sampled estimates before the solver may
	// act on them (graceful degradation; see GuardPolicy). Nil = no guard.
	Guard *GuardPolicy
}

// Guard-band thresholds. DefaultMaxErrAtNominal bounds the estimate at
// the r = 1 level: it exploits the structural invariant that a delay
// trace's error probability is exactly 0 there (no sensitized delay
// exceeds the critical path), so even a tiny epsilon is
// false-positive-free on genuine estimates. DefaultMaxDivergence bounds
// how far an estimate may sit *above* the running aggregate of previously
// accepted estimates at the same TSR level (one-sided: injected noise
// pushes rates up; genuine drift downward is harmless). It is
// deliberately generous: genuine per-interval estimates drift, and only a
// corrupted sensor jumps half the whole probability range above the
// running aggregate.
const (
	DefaultMaxErrAtNominal = 1e-6
	DefaultMaxDivergence   = 0.5
)

// Guard-band rejection reasons (also the telemetry fallback Reason values).
const (
	GuardNaN          = "nan-estimate"
	GuardOutOfRange   = "out-of-range"
	GuardNonMonotone  = "non-monotone"
	GuardAtNominal    = "nonzero-at-nominal"
	GuardDivergence   = "divergence"
	monotoneTolerance = 1e-9
)

// GuardPolicy is the estimate guard band of the online flow: a set of
// plausibility checks applied to each thread's sampled error rates before
// SolvePoly may act on them. A thread whose estimates fail any check falls
// back to the nominal V/TSR operating point for the interval — the safe
// assignment, since err(1) = 0 by construction — rather than letting a
// corrupted sensor drive the whole chip's schedule.
type GuardPolicy struct {
	// Baseline returns the running aggregate estimate for a TSR level from
	// earlier intervals (the caller typically feeds it from the telemetry
	// ledger) and whether any baseline exists yet. The divergence check
	// only applies where it reports a value.
	Baseline func(level int) (float64, bool)
}

// Check returns the first rejection reason for one thread's sampled
// rates, or "" if they are plausible. rates[k] corresponds to c.TSRs[k],
// ascending, ending at r = 1.
func (g *GuardPolicy) Check(c *Config, rates []float64) string {
	for _, r := range rates {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return GuardNaN
		}
	}
	for _, r := range rates {
		if r < 0 || r > 1 {
			return GuardOutOfRange
		}
	}
	// Error probability is non-increasing in r (more timing slack can only
	// reduce errors); the sampling estimator enforces this by isotonic
	// pooling, so a violation means corruption.
	for k := 1; k < len(rates); k++ {
		if rates[k] > rates[k-1]+monotoneTolerance {
			return GuardNonMonotone
		}
	}
	if rates[len(rates)-1] > DefaultMaxErrAtNominal {
		return GuardAtNominal
	}
	if g.Baseline != nil {
		for k, r := range rates {
			if base, ok := g.Baseline(k); ok && r > base+DefaultMaxDivergence {
				return GuardDivergence
			}
		}
	}
	return ""
}

// PessimalErr is the error function the solver sees for a fallback
// thread: safe only at r = 1. It steers SolvePoly's barrier-time view of
// the thread toward the nominal point the fallback will pin anyway.
func PessimalErr(r float64) float64 {
	if r >= 1 {
		return 0
	}
	return 1
}

// SolveGuarded is the solve step the online flow and the solver daemon
// share. It screens each thread's sampled rates (rates[i][k] at
// c.TSRs[k]) with g, sets ths[i].Err to the estimated error function of
// the rates, or to PessimalErr when g rejects them, solves with
// SolvePoly, and pins each rejected thread to the nominal operating point
// (Voltages[0], TSR 1), where err = 0 by construction: graceful
// degradation, so an implausible sensor reading cannot drive the
// schedule. reasons[i] is thread i's rejection reason ("" if admitted);
// a nil g screens nothing and returns nil reasons.
func SolveGuarded(c *Config, g *GuardPolicy, ths []Thread, rates [][]float64, theta float64) (a Assignment, reasons []string) {
	if g != nil {
		reasons = make([]string, len(ths))
	}
	for i := range ths {
		ths[i].Err = PessimalErr
		if g != nil {
			reasons[i] = g.Check(c, rates[i])
		}
		if g == nil || reasons[i] == "" {
			ths[i].Err = EstimatedErrFunc(c, rates[i])
		}
	}
	a, _ = SolvePoly(c, ths, theta)
	for i := range reasons {
		if reasons[i] != "" {
			a.VIdx[i], a.RIdx[i] = 0, len(c.TSRs)-1
		}
	}
	return a, reasons
}

// ErrEstimator reports the error rate observed for a thread while sampling
// at TSR index rIdx. Implementations measure this by running the thread's
// first instructions speculatively and counting Razor error events (the
// razor package provides one over recorded delay traces).
type ErrEstimator func(thread, rIdx int) float64

// SampleSlot is one slot of the Fig 4.7 sampling schedule.
type SampleSlot struct {
	RIdx   int
	Instrs float64
}

// SamplingSchedule returns the per-thread schedule of a sampling phase
// of nSamp instructions: nSamp/S instructions at each of the S TSR levels
// (Fig 4.7).
func SamplingSchedule(c *Config, nSamp float64) []SampleSlot {
	s := len(c.TSRs)
	slots := make([]SampleSlot, s)
	for k := range slots {
		slots[k] = SampleSlot{RIdx: k, Instrs: nSamp / float64(s)}
	}
	return slots
}

// EstimatedErrFunc builds the estimated error-probability function ~err_i
// from the sampled rates: a lookup on the nearest sampled ratio. SolvePoly
// only queries the discrete TSR levels, so the lookup is exact there; the
// nearest-point rule extends the estimate to other ratios the way the
// thesis extends the V_samp estimate to other voltages.
func EstimatedErrFunc(c *Config, rates []float64) ErrFunc {
	if len(rates) != len(c.TSRs) {
		panic(fmt.Sprintf("core: %d sampled rates for %d TSR levels", len(rates), len(c.TSRs)))
	}
	tsrs := append([]float64(nil), c.TSRs...)
	rs := append([]float64(nil), rates...)
	return func(r float64) float64 {
		best, bd := 0, math.Inf(1)
		for i, rr := range tsrs {
			if d := math.Abs(rr - r); d < bd {
				bd, best = d, i
			}
		}
		return rs[best]
	}
}

// OnlineResult reports an online-SynTS decision and its true cost.
type OnlineResult struct {
	// Assignment is the configuration chosen from the estimates and applied
	// to the post-sampling remainder of the interval.
	Assignment Assignment
	// Metrics is the *actual* outcome: sampling-phase time and energy plus
	// the remainder executed at the chosen configuration, all evaluated
	// with the true error functions.
	Metrics Metrics
	// SamplingTime and SamplingEnergy isolate the overhead contribution;
	// SamplingEnergyPer breaks the energy down per thread (telemetry and
	// the §6.3 overhead accounting attribute it per core).
	SamplingTime      []float64
	SamplingEnergy    float64
	SamplingEnergyPer []float64
	// Estimates are the per-thread estimated error functions (Fig 6.17).
	// A guarded-out thread's entry is the pessimal fallback function, not
	// the rejected estimates.
	Estimates []ErrFunc
	// Fallbacks holds the guard-band rejection reason per thread ("" =
	// estimates accepted); nil when no guard was configured.
	Fallbacks []string
}

// SolveOnline runs the practical SynTS flow for one barrier interval:
// sample error rates per TSR level at the nominal voltage, optimise with
// SynTS-Poly on the estimates, then charge the true cost of both the
// sampling phase and the optimised remainder (§4.3, evaluated in §6.2).
func SolveOnline(c *Config, actual []Thread, est ErrEstimator, oc OnlineConfig, theta float64) OnlineResult {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	if len(oc.NSamp) != len(actual) {
		panic(fmt.Sprintf("core: %d per-thread sampling budgets for %d threads", len(oc.NSamp), len(actual)))
	}
	m := len(actual)
	vsamp := c.Voltages[0]
	nLevels := float64(len(c.TSRs))

	// Build estimated threads over the post-sampling remainder.
	estThreads := make([]Thread, m)
	rates := make([][]float64, m)
	sampTime := make([]float64, m)
	sampEnergyPer := make([]float64, m)
	sampEnergy := 0.0
	for i, th := range actual {
		rates[i] = make([]float64, len(c.TSRs))
		for k := range c.TSRs {
			rates[i][k] = est(i, k)
		}
		nSamp := math.Min(oc.NSamp[i], th.N)
		if nSamp < 0 {
			panic("core: negative NSamp")
		}
		estThreads[i] = Thread{N: th.N - nSamp, CPIBase: th.CPIBase}

		// True sampling-phase cost: nSamp/S instructions at each (vsamp,
		// R_k), with the thread's *actual* error behaviour.
		for k := range c.TSRs {
			sub := Thread{N: nSamp / nLevels, CPIBase: th.CPIBase, Err: th.Err}
			sampTime[i] += c.ThreadTime(sub, vsamp, c.TSRs[k])
			sampEnergyPer[i] += c.ThreadEnergy(sub, vsamp, c.TSRs[k])
		}
		sampEnergy += sampEnergyPer[i]
	}

	a, fallbacks := SolveGuarded(c, oc.Guard, estThreads, rates, theta)
	estimates := make([]ErrFunc, m)
	for i := range estThreads {
		estimates[i] = estThreads[i].Err
	}

	// Actual outcome of the remainder under the chosen assignment.
	actualRem := make([]Thread, m)
	for i, th := range actual {
		nSamp := math.Min(oc.NSamp[i], th.N)
		actualRem[i] = Thread{N: th.N - nSamp, CPIBase: th.CPIBase, Err: th.Err}
	}
	run := c.Evaluate(actualRem, a, theta)

	mt := Metrics{ThreadTimes: make([]float64, m)}
	for i := range actual {
		mt.ThreadTimes[i] = sampTime[i] + run.ThreadTimes[i]
		if mt.ThreadTimes[i] > mt.TExec {
			mt.TExec = mt.ThreadTimes[i]
		}
	}
	mt.Energy = sampEnergy + run.Energy
	mt.Cost = mt.Energy + theta*mt.TExec
	return OnlineResult{
		Assignment:        a,
		Metrics:           mt,
		SamplingTime:      sampTime,
		SamplingEnergy:    sampEnergy,
		SamplingEnergyPer: sampEnergyPer,
		Estimates:         estimates,
		Fallbacks:         fallbacks,
	}
}
