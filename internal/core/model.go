// Package core implements the SynTS system model and optimization
// algorithms from the thesis:
//
//   - the analytic performance/energy model for timing-speculative cores
//     with fine-grained (Razor-style) recovery (Eqs. 4.1–4.3),
//   - the SynTS-OPT objective (Eq. 4.4),
//   - SynTS-Poly (Algorithm 1), the provably optimal polynomial-time solver,
//   - an exhaustive reference solver used to verify optimality,
//   - the comparison baselines: Nominal, No-TS and Per-core TS (§6),
//   - the online variant built on sampled error-probability estimates
//     (§4.3) and its overhead accounting (§6.3).
package core

import (
	"fmt"
	"math"
)

// ErrFunc maps a timing-speculation ratio r in (0,1] to the per-instruction
// timing-error probability at that ratio. It must be non-increasing in r
// and 0 at r = 1 (the nominal period is error-free by construction).
// Voltage independence is the thesis' modelling assumption: gate delays and
// the nominal period scale identically with voltage, so the error
// probability depends only on the ratio.
type ErrFunc func(r float64) float64

// Thread describes one thread's barrier-interval workload (Eq. 4.1 inputs).
type Thread struct {
	N       float64 // instructions in the interval
	CPIBase float64 // error-free cycles per instruction
	Err     ErrFunc // error probability function
}

// Config holds the platform parameters shared by all solvers.
type Config struct {
	// Voltages lists the available supply levels, descending; Voltages[0]
	// is the nominal chip voltage used by the Nominal baseline.
	Voltages []float64
	// TNom returns the nominal (error-free) clock period at a voltage, in
	// arbitrary consistent time units (the experiments use picoseconds).
	TNom func(v float64) float64
	// TSRs lists the available timing-speculation ratios, ascending, with
	// TSRs[len-1] == 1 (no speculation).
	TSRs []float64
	// CPenalty is the error-recovery penalty in cycles (5 for Razor).
	CPenalty float64
}

// Validate reports whether the configuration is usable by the solvers.
func (c *Config) Validate() error {
	if len(c.Voltages) == 0 {
		return fmt.Errorf("core: no voltage levels")
	}
	for i, v := range c.Voltages {
		if v <= 0 {
			return fmt.Errorf("core: voltage %d is %v, must be positive", i, v)
		}
		if i > 0 && v >= c.Voltages[i-1] {
			return fmt.Errorf("core: voltages must be strictly descending (index %d)", i)
		}
	}
	if len(c.TSRs) == 0 {
		return fmt.Errorf("core: no TSR levels")
	}
	for i, r := range c.TSRs {
		if r <= 0 || r > 1 {
			return fmt.Errorf("core: TSR %d is %v, must be in (0,1]", i, r)
		}
		if i > 0 && r <= c.TSRs[i-1] {
			return fmt.Errorf("core: TSRs must be strictly ascending (index %d)", i)
		}
	}
	if last := c.TSRs[len(c.TSRs)-1]; last != 1 {
		return fmt.Errorf("core: last TSR must be 1, got %v", last)
	}
	if c.TNom == nil {
		return fmt.Errorf("core: TNom is nil")
	}
	if c.CPenalty < 0 {
		return fmt.Errorf("core: negative recovery penalty")
	}
	return nil
}

// SPI returns the seconds (time units) per instruction of a thread at
// voltage v and TSR r — Eq. 4.1: SPI = t_clk (p_err C_penalty + CPI_base).
func (c *Config) SPI(th Thread, v, r float64) float64 {
	tclk := r * c.TNom(v)
	perr := th.Err(r)
	return tclk * (perr*c.CPenalty + th.CPIBase)
}

// ThreadTime returns the execution time of a thread's interval at (v, r):
// the per-thread term of Eq. 4.2.
func (c *Config) ThreadTime(th Thread, v, r float64) float64 {
	return th.N * c.SPI(th, v, r)
}

// ThreadEnergy returns the dynamic energy of a thread's interval at
// (v, r) in units of the switching capacitance alpha — Eq. 4.3 with
// alpha = 1: en = V^2 N (p_err C_penalty + CPI_base).
func (c *Config) ThreadEnergy(th Thread, v, r float64) float64 {
	perr := th.Err(r)
	return v * v * th.N * (perr*c.CPenalty + th.CPIBase)
}

// Assignment is a per-thread choice of voltage and TSR levels, stored as
// indices into Config.Voltages and Config.TSRs.
type Assignment struct {
	VIdx []int
	RIdx []int
}

// Clone deep-copies the assignment.
func (a Assignment) Clone() Assignment {
	return Assignment{
		VIdx: append([]int(nil), a.VIdx...),
		RIdx: append([]int(nil), a.RIdx...),
	}
}

// V returns the voltage of thread i under config c.
func (a Assignment) V(c *Config, i int) float64 { return c.Voltages[a.VIdx[i]] }

// R returns the TSR of thread i under config c.
func (a Assignment) R(c *Config, i int) float64 { return c.TSRs[a.RIdx[i]] }

// Metrics summarises an assignment (all in Config units).
type Metrics struct {
	Energy float64 // sum of thread energies (Eq. 4.3 summed)
	TExec  float64 // barrier execution time (Eq. 4.2)
	Cost   float64 // Energy + theta * TExec (Eq. 4.4)
	// ThreadTimes holds each thread's individual finish time; the slack of
	// thread i is TExec - ThreadTimes[i] (Fig 3.6's exploitable idle time).
	ThreadTimes []float64
}

// EDP returns the energy-delay product of the metrics.
func (m Metrics) EDP() float64 { return m.Energy * m.TExec }

// Evaluate computes the metrics of an assignment under weight theta.
func (c *Config) Evaluate(threads []Thread, a Assignment, theta float64) Metrics {
	if len(a.VIdx) != len(threads) || len(a.RIdx) != len(threads) {
		panic(fmt.Sprintf("core: assignment for %d/%d levels does not match %d threads",
			len(a.VIdx), len(a.RIdx), len(threads)))
	}
	m := Metrics{ThreadTimes: make([]float64, len(threads))}
	for i, th := range threads {
		v, r := a.V(c, i), a.R(c, i)
		t := c.ThreadTime(th, v, r)
		m.ThreadTimes[i] = t
		if t > m.TExec {
			m.TExec = t
		}
		m.Energy += c.ThreadEnergy(th, v, r)
	}
	m.Cost = m.Energy + theta*m.TExec
	return m
}

// ThreadBreakdown is one thread's share of an assignment: the chosen
// operating point with its time, energy, error probability and expected
// Razor replay count. It exists so consumers (the telemetry ledger, the
// explain report) can attribute an interval's outcome per core without
// the solvers' hot paths having to allocate per-thread detail.
type ThreadBreakdown struct {
	VIdx, RIdx int
	V, R       float64
	Time       float64
	Energy     float64
	// Err is the per-instruction timing-error probability at (V, R);
	// Replays = N * Err is the expected number of Razor replay events.
	Err     float64
	Replays float64
}

// Breakdown computes thread i's slice of assignment a. It is evaluated
// on demand (never inside the solver loops), so enabling attribution
// costs nothing on the optimisation hot path.
func (c *Config) Breakdown(th Thread, a Assignment, i int) ThreadBreakdown {
	v, r := a.V(c, i), a.R(c, i)
	perr := th.Err(r)
	return ThreadBreakdown{
		VIdx: a.VIdx[i], RIdx: a.RIdx[i],
		V: v, R: r,
		Time:    c.ThreadTime(th, v, r),
		Energy:  c.ThreadEnergy(th, v, r),
		Err:     perr,
		Replays: th.N * perr,
	}
}

// uniformAssignment gives every thread the same (vIdx, rIdx).
func uniformAssignment(n, vIdx, rIdx int) Assignment {
	a := Assignment{VIdx: make([]int, n), RIdx: make([]int, n)}
	for i := range a.VIdx {
		a.VIdx[i], a.RIdx[i] = vIdx, rIdx
	}
	return a
}

// ConstErr returns an ErrFunc that is 0 at r >= threshold and rises
// linearly to peak at the smallest ratio — a convenient synthetic error
// model for tests and the quickstart example.
func ConstErr(threshold, peak float64) ErrFunc {
	return func(r float64) float64 {
		if r >= threshold {
			return 0
		}
		return peak * (threshold - r) / threshold
	}
}

// ZeroErr is an ErrFunc with no timing errors at any ratio.
func ZeroErr(float64) float64 { return 0 }

var _ ErrFunc = ZeroErr

// checkFinite guards solver arithmetic against NaN propagation from broken
// ErrFuncs; solvers call it on candidate costs.
func checkFinite(x float64, what string) {
	if math.IsNaN(x) {
		panic("core: NaN " + what + " (broken ErrFunc?)")
	}
}
