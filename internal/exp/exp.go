// Package exp wires the substrates together into the thesis' experiments:
// each table and figure of the evaluation has a driver here that produces
// its data, and the cmd/synts tool renders them.
package exp

import (
	"context"
	"errors"
	"fmt"

	"synts/internal/core"
	"synts/internal/cpu"
	"synts/internal/flight"
	"synts/internal/obs"
	"synts/internal/telemetry"
	"synts/internal/trace"
	"synts/internal/vscale"
	"synts/internal/workload"
)

// Options configures an experiment run. The defaults reproduce the thesis
// setup scaled to simulator-friendly trace lengths.
type Options struct {
	Threads      int   // cores = threads (4-core Alpha in the thesis)
	Size         int   // workload size knob passed to the kernels
	Seed         int64 // data seed
	MaxIntervals int   // barrier intervals analysed per benchmark (3 in §5.2)
	Cache        cpu.CacheConfig
}

// The thesis' online-SynTS and Razor constants (§5): each thread samples
// NSampFrac of its interval, and a timing error costs CPenalty cycles of
// recovery.
const (
	NSampFrac = 0.10
	CPenalty  = 5
)

// DefaultOptions mirrors §5: 4 cores and 3 barrier intervals.
func DefaultOptions() Options {
	return Options{
		Threads:      4,
		Size:         2,
		Seed:         2016,
		MaxIntervals: 3,
		Cache:        cpu.DefaultL1(),
	}
}

// TSRs returns the six timing-speculation ratios of §6.2: evenly spaced
// fractions r in [0.64, 1] of the nominal clock period.
func TSRs() []float64 {
	return []float64{0.64, 0.712, 0.784, 0.856, 0.928, 1.0}
}

// Platform builds the solver configuration for a pipe stage: the paper's
// Table 5.1 voltage levels with the stage's STA critical path as the
// nominal period at 1.0 V, and the CPenalty recovery cost. No option
// changes the platform; the Options argument stays for callers.
func Platform(stage trace.Stage, _ Options) *core.Config {
	tcrit := stage.TCrit()
	table := vscale.PaperTable()
	return &core.Config{
		Voltages: vscale.PaperVoltages(),
		TNom:     func(v float64) float64 { return tcrit * table.TNom(v) },
		TSRs:     TSRs(),
		CPenalty: CPenalty,
	}
}

// Bench bundles one benchmark's streams and per-stage profiles.
type Bench struct {
	Name    string
	Opts    Options
	Streams []*workload.Stream

	// profiles singleflights per-stage profile builds: concurrent callers
	// for the same stage share one build, and builds for *different*
	// stages proceed concurrently instead of serializing on a map lock.
	profiles flight.Memo[trace.Stage, [][]*trace.Profile]
}

// classifyLookup bumps the hit/miss/singleflight-wait counter for one
// memoized lookup.
func classifyLookup(prefix string, out flight.Outcome) {
	if !obs.Enabled() {
		return
	}
	obs.C(prefix + "." + out.String()).Add(1)
}

// buildProfiles is swapped out by tests that count build invocations.
// The kernel name scopes simprof attribution to the benchmark; results
// are independent of whether the profiler is recording.
var buildProfiles = func(ctx context.Context, kernel string, streams []*workload.Stream, stage trace.Stage, cfg cpu.CacheConfig) ([][]*trace.Profile, error) {
	return trace.BuildProfilesScopedCtx(ctx, kernel, streams, stage, cfg, 0)
}

// canceled reports whether err came from context cancellation; such
// errors must not poison singleflight caches, since a later (uncancelled)
// caller should rebuild.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// LoadBench runs the kernel and truncates every thread's trace to
// MaxIntervals barrier intervals (§5.2 runs 3 intervals or to completion).
func LoadBench(name string, opts Options) (*Bench, error) {
	k, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	streams := workload.RunKernel(k, opts.Threads, opts.Size, opts.Seed)
	if opts.MaxIntervals > 0 {
		for _, s := range streams {
			if len(s.Intervals) > opts.MaxIntervals {
				// Nil the dropped tail so its instructions can be freed.
				clear(s.Intervals[opts.MaxIntervals:])
				s.Intervals = s.Intervals[:opts.MaxIntervals]
			}
		}
	}
	return &Bench{
		Name:    name,
		Opts:    opts,
		Streams: streams,
	}, nil
}

// Profiles returns (building and caching on first use) the [thread][interval]
// profiles of the benchmark for a stage. Concurrent callers for the same
// stage trigger exactly one build; callers for different stages build in
// parallel.
func (b *Bench) Profiles(stage trace.Stage) ([][]*trace.Profile, error) {
	return b.ProfilesCtx(context.Background(), stage)
}

// ProfilesCtx is Profiles with a cancellation context. A build aborted by
// ctx does not poison the memo: the entry is discarded so a later caller
// rebuilds from scratch.
func (b *Bench) ProfilesCtx(ctx context.Context, stage trace.Stage) ([][]*trace.Profile, error) {
	p, err, out := b.profiles.Do(stage, func() ([][]*trace.Profile, error) {
		defer obs.StartRegion("exp.profiles.build:", b.Name, ":", stage.String()).End()
		return buildProfiles(ctx, b.Name, b.Streams, stage, b.Opts.Cache)
	})
	classifyLookup("exp.profiles", out)
	if canceled(err) {
		b.profiles.DiscardIf(stage, canceled)
	}
	return p, err
}

// BenchCache memoizes loaded benchmarks across experiments, keyed by
// (name, options), with per-key singleflight: concurrent drivers that need
// the same kernel run it once and share the *Bench (whose own per-stage
// profile memoization is concurrency-safe, so sharing is free).
type BenchCache struct {
	m flight.Memo[benchKey, *Bench]
}

type benchKey struct {
	name string
	opts Options
}

// loadBenchImpl is swapped out by tests that count kernel runs.
var loadBenchImpl = LoadBench

// NewBenchCache returns an empty cache.
func NewBenchCache() *BenchCache {
	return &BenchCache{}
}

// LoadCtx returns the cached benchmark for (name, opts), running the
// kernel on first use; every caller with the same key gets the same
// *Bench. An already-cancelled ctx skips the kernel run, and a
// cancellation observed by the builder does not poison the cache entry.
func (c *BenchCache) LoadCtx(ctx context.Context, name string, opts Options) (*Bench, error) {
	key := benchKey{name: name, opts: opts}
	b, err, out := c.m.Do(key, func() (*Bench, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		defer obs.StartRegion("exp.bench.load:", name).End()
		return loadBenchImpl(name, opts)
	})
	classifyLookup("exp.benchcache", out)
	if canceled(err) {
		c.m.DiscardIf(key, canceled)
	}
	return b, err
}

// Intervals returns the per-interval solver inputs for a stage.
func (b *Bench) Intervals(stage trace.Stage) ([][]core.Thread, error) {
	return b.IntervalsCtx(context.Background(), stage)
}

// IntervalsCtx is Intervals with a cancellation context.
func (b *Bench) IntervalsCtx(ctx context.Context, stage trace.Stage) ([][]core.Thread, error) {
	p, err := b.ProfilesCtx(ctx, stage)
	if err != nil {
		return nil, err
	}
	return trace.IntervalThreads(p), nil
}

// Totals aggregates a per-interval (energy, texec) sequence.
type Totals struct {
	Energy float64
	Time   float64
}

// EDP returns energy * time.
func (t Totals) EDP() float64 { return t.Energy * t.Time }

// SolveAll runs a solver over every barrier interval and sums energy and
// execution time (Eq. 4.2's "total execution time is the sum over barrier
// intervals").
func SolveAll(cfg *core.Config, intervals [][]core.Thread, solve func(*core.Config, []core.Thread, float64) (core.Assignment, core.Metrics), theta float64) Totals {
	return solveAll(telemetry.Scope{}, "", cfg, intervals, solve, theta)
}

// TimedSolveAll is SolveAll inside an obs region named after the solver,
// so per-theta solver calls show up in the -stats histograms and the
// -trace-out execution trace. When the telemetry ledger is recording and
// sc is non-zero, every (core, interval) operating-point choice is
// recorded as a decision event (via core.Config.Breakdown, evaluated only
// at emission time — the solver hot path allocates nothing extra) and
// every interval as a barrier event. Offline solvers see the oracle error
// functions, so their decisions record est_err == act_err; the online
// driver emits its own decisions with the genuine estimate/truth split.
func TimedSolveAll(sc telemetry.Scope, name string, cfg *core.Config, intervals [][]core.Thread, solve func(*core.Config, []core.Thread, float64) (core.Assignment, core.Metrics), theta float64) Totals {
	defer obs.StartRegion("exp.solve:", name).End()
	return solveAll(sc, name, cfg, intervals, solve, theta)
}

// solveAll is the loop behind SolveAll and TimedSolveAll; it records
// ledger events only for a named solver under a non-zero scope.
func solveAll(sc telemetry.Scope, solver string, cfg *core.Config, intervals [][]core.Thread, solve func(*core.Config, []core.Thread, float64) (core.Assignment, core.Metrics), theta float64) Totals {
	var tot Totals
	emit := solver != "" && !sc.Zero() && telemetry.Enabled()
	for iv, ths := range intervals {
		if emptyInterval(ths) {
			continue
		}
		a, m := solve(cfg, ths, theta)
		tot.Energy += m.Energy
		tot.Time += m.TExec
		if !emit {
			continue
		}
		for i, th := range ths {
			bd := cfg.Breakdown(th, a, i)
			telemetry.Record(telemetry.Event{
				Kind:           telemetry.KindDecision,
				Bench:          sc.Bench,
				Stage:          sc.Stage,
				Solver:         solver,
				Theta:          theta,
				Interval:       iv,
				Core:           i,
				V:              bd.V,
				TSR:            bd.R,
				EstErr:         bd.Err,
				ActErr:         bd.Err,
				Replays:        bd.Replays,
				Energy:         bd.Energy,
				Time:           bd.Time,
				Instrs:         th.N,
				IntervalCycles: th.N * th.CPIBase,
			})
		}
		telemetry.Record(telemetry.Event{
			Kind:     telemetry.KindBarrier,
			Bench:    sc.Bench,
			Stage:    sc.Stage,
			Solver:   solver,
			Theta:    theta,
			Interval: iv,
			Core:     -1,
			Cores:    len(ths),
			Energy:   m.Energy,
			Time:     m.TExec,
		})
	}
	return tot
}

func emptyInterval(ths []core.Thread) bool {
	for _, th := range ths {
		if th.N > 0 {
			return false
		}
	}
	return true
}

// ThetaGrid returns weight values spanning the energy-vs-time trade-off.
// The weights are expressed relative to the benchmark's nominal
// energy/time ratio so the sweep covers the Pareto front regardless of
// units: theta = w * E_nom / T_nom.
func ThetaGrid(cfg *core.Config, intervals [][]core.Thread, weights []float64) []float64 {
	var nom Totals
	for _, ths := range intervals {
		if emptyInterval(ths) {
			continue
		}
		_, m := core.SolveNominal(cfg, ths, 0)
		nom.Energy += m.Energy
		nom.Time += m.TExec
	}
	ratio := 1.0
	if nom.Time > 0 {
		ratio = nom.Energy / nom.Time
	}
	out := make([]float64, len(weights))
	for i, w := range weights {
		out[i] = w * ratio
	}
	return out
}

// DefaultWeights spans four decades around the balanced point, densely
// enough near w = 1 that the per-approach curves can be compared at
// matched time budgets.
func DefaultWeights() []float64 {
	return []float64{0.01, 0.03, 0.1, 0.2, 0.3, 0.5, 0.7, 1, 1.5, 2, 3, 5, 10, 30, 100}
}

// Nominal returns the Nominal-baseline totals for normalisation.
func Nominal(cfg *core.Config, intervals [][]core.Thread) Totals {
	return SolveAll(cfg, intervals, core.SolveNominal, 0)
}

// StageByName parses a stage name.
func StageByName(name string) (trace.Stage, error) {
	for _, s := range trace.Stages() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("exp: unknown stage %q (want Decode, SimpleALU or ComplexALU)", name)
}
