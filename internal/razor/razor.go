// Package razor models the error detection and recovery machinery that
// makes timing speculation safe: Razor-style shadow-latch flip-flops whose
// comparator flags any pipe-stage output still switching at the clock edge,
// triggering a C_penalty-cycle pipeline replay (Fig 1.1, [1][6]).
//
// Two roles in the reproduction:
//
//   - ReplayProfileScoped is the cycle-level reference simulation used to
//     validate the analytic SPI model of Eq. 4.1 (the solvers use the
//     equation; this package shows the equation matches a faithful
//     replay).
//   - SamplingEstimator implements the online sampling phase (§4.3): the
//     first N_samp instructions of a barrier interval run in S slots, one
//     per TSR level, and the per-slot Razor error counts become the
//     estimated error probability function fed to SynTS-Poly.
package razor

import (
	"fmt"
	"math"

	"synts/internal/core"
	"synts/internal/faults"
	"synts/internal/isa"
	"synts/internal/simprof"
	"synts/internal/telemetry"
	"synts/internal/trace"
)

// Result summarises a cycle-level replay.
type Result struct {
	Instructions int
	Errors       int
	Cycles       float64 // issue cycles + recovery cycles (excludes memory stalls)
}

// ErrorRate returns the per-instruction timing-error probability observed.
func (r Result) ErrorRate() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Instructions)
}

// opAccum collects one replay site's per-opcode attribution before it is
// flushed to simprof in a handful of Record calls — the hot loop never
// touches the profiler's lock. A nil *opAccum disables attribution; the
// Result is identical either way because every replay shares this one
// loop.
type opAccum struct {
	cycles [isa.NumOps]float64
	errors [isa.NumOps]int64
	instrs [isa.NumOps]int64
	// Errors injected by the chaos harness have no single opcode; they
	// land under the synthetic "(chaos)" frame.
	chaosErr int64
	chaosCyc float64
}

// replayAttr is the one Razor replay loop over a window of profile codes
// clocked at tclk (same units as the delays, i.e. the speculative period
// r * TCrit at the reference voltage). Each instruction issues in one
// cycle; an instruction whose stage output settles after the clock edge —
// its code is >= cut, the window's Profile.Cut(tclk) — is caught by the
// shadow latch and costs cPenalty extra cycles. insts (aligned with
// codes) is consulted only when acc is non-nil.
func replayAttr(codes trace.Codes, insts []isa.Inst, cut uint32, tclk float64, cPenalty float64, acc *opAccum) Result {
	if tclk <= 0 {
		panic(fmt.Sprintf("razor: non-positive clock period %v", tclk))
	}
	n := codes.Len()
	if acc != nil && len(insts) != n {
		panic(fmt.Sprintf("razor: %d instructions for %d codes", len(insts), n))
	}
	res := Result{Instructions: n}
	for i := 0; i < n; i++ {
		res.Cycles++
		erred := codes.At(i) >= cut
		if erred {
			res.Errors++
			res.Cycles += cPenalty
		}
		if acc != nil {
			op := insts[i].Op
			acc.instrs[op]++
			if erred {
				acc.errors[op]++
				acc.cycles[op] += 1 + cPenalty
			} else {
				acc.cycles[op]++
			}
		}
	}
	if faults.Enabled() {
		// Chaos harness: a flaky shadow-latch comparator over-reports
		// errors; the extra replays cost their recovery cycles too.
		if e := faults.ReplayErrors(res.Errors, res.Instructions, math.Float64bits(tclk)); e != res.Errors {
			extra := e - res.Errors
			res.Cycles += float64(extra) * cPenalty
			res.Errors = e
			if acc != nil {
				acc.chaosErr += int64(extra)
				acc.chaosCyc += float64(extra) * cPenalty
			}
		}
	}
	return res
}

// flush records the accumulated attribution under one (kernel, core,
// interval, stage, phase) scope, one bucket per opcode seen. Cycle
// energy uses the per-replay-cycle constant (V = V_nom).
func (a *opAccum) flush(kernel, stage, phase string, coreID, interval int) {
	for op := 0; op < isa.NumOps; op++ {
		if a.instrs[op] == 0 {
			continue
		}
		simprof.Record(
			simprof.Key{Kernel: kernel, Core: coreID, Interval: interval, Phase: phase, Op: isa.Op(op).String(), Stage: stage},
			simprof.Values{
				Cycles: a.cycles[op],
				Errors: a.errors[op],
				Energy: a.cycles[op] * simprof.EnergyPerReplayCyclePJ,
				Instrs: a.instrs[op],
			},
		)
	}
	if a.chaosErr > 0 {
		simprof.Record(
			simprof.Key{Kernel: kernel, Core: coreID, Interval: interval, Phase: phase, Op: simprof.OpChaos, Stage: stage},
			simprof.Values{
				Cycles: a.chaosCyc,
				Errors: a.chaosErr,
				Energy: a.chaosCyc * simprof.EnergyPerReplayCyclePJ,
			},
		)
	}
}

// ReplayProfileScoped replays one thread's whole interval at TSR r and
// returns both the observed result and the analytic cycles from Eq. 4.1
// for comparison (base CPI added in both). When the telemetry ledger is
// recording and the scope is non-zero, the replay's observed error count,
// cycle cost and Eq. 4.1 analytic cycles are recorded as one replay
// event. Unscoped callers (ablations, tests) pass the zero scope and stay
// ledger-silent.
// When the simprof profiler is enabled (and the scope non-zero), the
// same replay also attributes per-opcode cycles and errors under phase
// "replay", with the CPI-base stall cycles under the synthetic
// "(stall)" frame — so the profiler's per-(kernel, stage) replay totals
// reconcile exactly with the ledger's replay events (obscheck -simprof
// cross-checks this).
func ReplayProfileScoped(sc telemetry.Scope, solver string, p *trace.Profile, r float64, cPenalty float64) (Result, float64) {
	var acc *opAccum
	if simprof.Enabled() && !sc.Zero() && len(p.Insts) == p.Codes.Len() {
		acc = &opAccum{}
	}
	tclk := r * p.TCrit
	res := replayAttr(p.Codes, p.Insts, p.Cut(tclk), tclk, cPenalty, acc)
	// Memory-stall cycles from the cache model apply identically in both.
	stall := (p.CPIBase - 1) * float64(p.N)
	res.Cycles += stall
	analytic := float64(p.N) * (p.Err(r)*cPenalty + p.CPIBase)
	if acc != nil {
		acc.flush(sc.Bench, sc.Stage, simprof.PhaseReplay, p.Thread, p.Interval)
		if stall != 0 {
			simprof.Record(
				simprof.Key{Kernel: sc.Bench, Core: p.Thread, Interval: p.Interval, Phase: simprof.PhaseReplay, Op: simprof.OpStall, Stage: sc.Stage},
				simprof.Values{Cycles: stall, Energy: stall * simprof.EnergyPerStallCyclePJ},
			)
		}
	}
	if telemetry.Enabled() && !sc.Zero() {
		telemetry.Record(telemetry.Event{
			Kind:           telemetry.KindReplay,
			Bench:          sc.Bench,
			Stage:          sc.Stage,
			Solver:         solver,
			Interval:       p.Interval,
			Core:           p.Thread,
			TSR:            r,
			ActErr:         res.ErrorRate(),
			Replays:        float64(res.Errors),
			Instrs:         float64(res.Instructions),
			Cycles:         res.Cycles,
			AnalyticCycles: analytic,
			IntervalCycles: float64(p.N) * p.CPIBase,
		})
	}
	return res, analytic
}

// SamplingGranule is the number of consecutive instructions executed at one
// TSR level before the sampling controller rotates to the next. The paper
// assigns each level N_samp/S instructions; interleaving them as short
// granules spread across the whole sampling window (instead of S long
// contiguous slots) keeps every level's estimate aligned with the same mix
// of loop phases — contiguous slots alias against loop periods at small
// N_samp. A clock divider off the shared fast PLL switches ratios at
// granule boundaries.
const SamplingGranule = 8

// SamplingEstimator builds a core.ErrEstimator over one barrier interval's
// per-thread profiles. Thread i's first min(budgets[i], N) instructions
// are split evenly across the TSR levels (Fig 4.7), rotating level every
// granule instructions (SamplingGranule in the paper's drivers; a granule
// of budget/S, rounded up, gives Fig 4.7's S contiguous slots); level k's
// error counter replays at tsrs[k]. The per-level rates are made monotone
// (non-increasing in r) by pooling, since sampling noise can otherwise
// invert neighbouring levels.
//
// The budget is per thread because with strongly imbalanced barrier
// intervals (a panel-owner thread executing 100x the instructions of its
// siblings) a single N_samp either starves the big threads' estimates or
// over-samples the small ones; the experiment drivers pass a fixed
// fraction of each thread's instruction count.
//
// When the telemetry ledger is recording and sc is non-zero, each
// (thread, TSR level) measurement is recorded as one estimate event
// carrying the pooled estimate, the full-trace truth, the instructions
// sampled at the level and the cycle cost of sampling them — the raw
// material of the §6.3 overhead fraction and the Fig 6.17 divergence
// analysis. When the simprof profiler is enabled, the sampling replays
// are attributed per opcode under phase "sampling". Neither changes the
// returned estimator.
func SamplingEstimator(sc telemetry.Scope, profiles []*trace.Profile, tsrs []float64, budgets []int, cPenalty float64, granule int) core.ErrEstimator {
	stats := samplingStats(sc, profiles, tsrs, budgets, cPenalty, granule)
	if telemetry.Enabled() && !sc.Zero() {
		for i, p := range profiles {
			st := stats[i]
			for k, r := range tsrs {
				telemetry.Record(telemetry.Event{
					Kind:           telemetry.KindEstimate,
					Bench:          sc.Bench,
					Stage:          sc.Stage,
					Interval:       p.Interval,
					Core:           p.Thread,
					TSR:            r,
					EstErr:         st.Rates[k],
					ActErr:         p.Err(r),
					Replays:        float64(st.Errs[k]),
					Instrs:         float64(p.N),
					SampleBudget:   float64(st.Counts[k]),
					SampleCycles:   st.Cycles[k],
					IntervalCycles: float64(p.N) * p.CPIBase,
				})
			}
		}
	}
	return func(thread, rIdx int) float64 {
		return faults.Estimate(thread, rIdx, stats[thread].Rates[rIdx])
	}
}

// threadSampling holds one thread's sampling-phase measurements, indexed
// by TSR level: the isotonic-pooled rate estimates, raw error and
// instruction counts, and the replayed cycle cost at each level.
type threadSampling struct {
	Rates  []float64
	Errs   []int
	Counts []int
	Cycles []float64
}

// samplingStats runs the Fig 4.7 sampling schedule over every profile and
// returns the per-thread, per-level measurements, with optional simprof
// attribution (phase "sampling", all TSR levels merged per opcode). The
// returned measurements never depend on whether attribution ran.
func samplingStats(sc telemetry.Scope, profiles []*trace.Profile, tsrs []float64, budgets []int, cPenalty float64, granule int) []threadSampling {
	if len(budgets) != len(profiles) {
		panic(fmt.Sprintf("razor: %d budgets for %d profiles", len(budgets), len(profiles)))
	}
	if granule <= 0 {
		panic("razor: non-positive sampling granule")
	}
	s := len(tsrs)
	if s == 0 {
		panic("razor: no TSR levels to sample")
	}
	// Precompute all rates so the estimator closure is cheap and pure.
	stats := make([]threadSampling, len(profiles))
	tclks := make([]float64, s)
	cuts := make([]uint32, s)
	for i, p := range profiles {
		st := threadSampling{
			Rates:  make([]float64, s),
			Errs:   make([]int, s),
			Counts: make([]int, s),
			Cycles: make([]float64, s),
		}
		n := budgets[i]
		if n < 0 {
			panic("razor: negative sampling budget")
		}
		if n > p.Codes.Len() {
			n = p.Codes.Len()
		}
		var acc *opAccum
		if simprof.Enabled() && !sc.Zero() && len(p.Insts) == p.Codes.Len() {
			acc = &opAccum{}
		}
		for k, r := range tsrs {
			tclks[k] = r * p.TCrit
			cuts[k] = p.Cut(tclks[k])
		}
		for g := 0; g*granule < n; g++ {
			k := g % s
			lo := g * granule
			hi := lo + granule
			if hi > n {
				hi = n
			}
			var insts []isa.Inst
			if acc != nil {
				insts = p.Insts[lo:hi]
			}
			res := replayAttr(p.Codes.Slice(lo, hi), insts, cuts[k], tclks[k], cPenalty, acc)
			st.Errs[k] += res.Errors
			st.Counts[k] += res.Instructions
			st.Cycles[k] += res.Cycles
		}
		if acc != nil {
			acc.flush(sc.Bench, sc.Stage, simprof.PhaseSampling, p.Thread, p.Interval)
		}
		for k := 0; k < s; k++ {
			if st.Counts[k] > 0 {
				st.Rates[k] = float64(st.Errs[k]) / float64(st.Counts[k])
			}
		}
		// Isotonic pooling: error probability cannot increase with r.
		for k := s - 2; k >= 0; k-- {
			if st.Rates[k] < st.Rates[k+1] {
				st.Rates[k] = st.Rates[k+1]
			}
		}
		stats[i] = st
	}
	return stats
}
