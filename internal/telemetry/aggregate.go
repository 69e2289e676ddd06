package telemetry

import (
	"math"
	"sort"

	"synts/internal/stats"
)

// Percentiles summarises a sample of absolute estimator divergences
// |est_err - act_err| with exact order statistics (the samples are small
// enough that sorting beats sketching, and exactness keeps the explain
// report deterministic).
type Percentiles struct {
	N             int
	P50, P95, P99 float64
	Max           float64
}

// CurvePoint is one (TSR, estimated, actual) sample of a core's
// error-probability curve, averaged over the barrier intervals sampled.
type CurvePoint struct {
	TSR    float64
	EstErr float64
	ActErr float64
}

// CoreCurve is one core's error-probability-vs-TSR curve (Fig 6.17 in
// table form), ascending in TSR.
type CoreCurve struct {
	Core   int
	Points []CurvePoint
}

// SolverSummary aggregates one solver's decision events for a stage.
type SolverSummary struct {
	Solver    string
	Decisions int
	MeanV     float64
	MeanTSR   float64
	Replays   float64
	Energy    float64
	Time      float64
}

// StageSummary aggregates one (bench, stage)'s ledger slice into the
// paper-facing quantities: per-core estimate-vs-truth curves, estimator
// divergence percentiles, the §6.3 sampling overhead, and per-solver
// decision rollups.
type StageSummary struct {
	Bench string
	Stage string

	// Curves holds one estimate-vs-actual error curve per core, built
	// from the estimate events (deduplicated across experiments that
	// sampled the same (core, interval)).
	Curves []CoreCurve

	// Divergence is |est_err - act_err| over the deduplicated estimate
	// events — how far the §4.3 sampling estimator strays from the
	// full-trace truth.
	Divergence Percentiles

	// SampleCycles and IntervalCycles sum the sampling-phase cycle cost
	// and the error-free interval cycles over distinct (core, interval)
	// pairs; Overhead is their ratio — the §6.3 "sampling cost as a
	// fraction of the interval" number.
	SampleCycles   float64
	IntervalCycles float64
	Overhead       float64

	// SampledInstrs / TotalInstrs is the same overhead in instruction
	// terms (the N_samp fraction actually realised).
	SampledInstrs float64
	TotalInstrs   float64

	Solvers []SolverSummary

	Estimates int // estimate events (before deduplication)
	Replayed  int // replay events
	Barriers  int // barrier events
}

// estKey identifies one sampling measurement; experiments that sample the
// same point (e.g. the Fig 6.17 study and the Fig 6.18 online run) record
// identical events, which must not double-count the overhead.
type estKey struct {
	core     int
	interval int
	tsr      float64
}

// Aggregate distils a ledger into per-(bench, stage) summaries, sorted by
// bench then stage. When bench is non-empty only that benchmark's events
// are considered.
func Aggregate(events []Event, bench string) []*StageSummary {
	type skey struct{ bench, stage string }
	byStage := make(map[skey][]Event)
	var order []skey
	for _, e := range events {
		if bench != "" && e.Bench != bench {
			continue
		}
		k := skey{e.Bench, e.Stage}
		if _, ok := byStage[k]; !ok {
			order = append(order, k)
		}
		byStage[k] = append(byStage[k], e)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].bench != order[j].bench {
			return order[i].bench < order[j].bench
		}
		return order[i].stage < order[j].stage
	})
	out := make([]*StageSummary, 0, len(order))
	for _, k := range order {
		out = append(out, aggregateStage(k.bench, k.stage, byStage[k]))
	}
	return out
}

func aggregateStage(bench, stage string, events []Event) *StageSummary {
	s := &StageSummary{Bench: bench, Stage: stage}

	est := make(map[estKey]Event)
	solvers := make(map[string]*SolverSummary)
	var solverOrder []string
	type ciKey struct{ core, interval int }
	intervalSeen := make(map[ciKey]bool)

	for _, e := range events {
		switch e.Kind {
		case KindEstimate:
			s.Estimates++
			k := estKey{e.Core, e.Interval, e.TSR}
			if _, dup := est[k]; !dup {
				est[k] = e
			}
		case KindDecision:
			ss := solvers[e.Solver]
			if ss == nil {
				ss = &SolverSummary{Solver: e.Solver}
				solvers[e.Solver] = ss
				solverOrder = append(solverOrder, e.Solver)
			}
			ss.Decisions++
			ss.MeanV += e.V
			ss.MeanTSR += e.TSR
			ss.Replays += e.Replays
			ss.Energy += e.Energy
			ss.Time += e.Time
		case KindReplay:
			s.Replayed++
		case KindBarrier:
			s.Barriers++
		}
	}

	// Curves and divergence from the deduplicated estimates.
	byCore := make(map[int]map[float64]*CurvePoint)
	var div []float64
	for k, e := range est {
		m := byCore[k.core]
		if m == nil {
			m = make(map[float64]*CurvePoint)
			byCore[k.core] = m
		}
		cp := m[k.tsr]
		if cp == nil {
			cp = &CurvePoint{TSR: k.tsr}
			m[k.tsr] = cp
		}
		cp.EstErr += e.EstErr
		cp.ActErr += e.ActErr
		div = append(div, math.Abs(e.EstErr-e.ActErr))

		ci := ciKey{k.core, k.interval}
		if !intervalSeen[ci] {
			intervalSeen[ci] = true
			s.IntervalCycles += e.IntervalCycles
			s.TotalInstrs += e.Instrs
		}
		s.SampleCycles += e.SampleCycles
		s.SampledInstrs += e.SampleBudget
	}
	// Per-(core, tsr) sample counts for averaging.
	counts := make(map[estKey]int)
	for k := range est {
		counts[estKey{k.core, 0, k.tsr}]++
	}
	var cores []int
	for c := range byCore {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	for _, c := range cores {
		cc := CoreCurve{Core: c}
		var tsrs []float64
		for r := range byCore[c] {
			tsrs = append(tsrs, r)
		}
		sort.Float64s(tsrs)
		for _, r := range tsrs {
			cp := *byCore[c][r]
			n := counts[estKey{c, 0, r}]
			if n > 0 {
				cp.EstErr /= float64(n)
				cp.ActErr /= float64(n)
			}
			cc.Points = append(cc.Points, cp)
		}
		s.Curves = append(s.Curves, cc)
	}

	s.Divergence = percentiles(div)
	if s.IntervalCycles > 0 {
		s.Overhead = s.SampleCycles / s.IntervalCycles
	}

	sort.Strings(solverOrder)
	for _, name := range solverOrder {
		ss := solvers[name]
		if ss.Decisions > 0 {
			ss.MeanV /= float64(ss.Decisions)
			ss.MeanTSR /= float64(ss.Decisions)
		}
		s.Solvers = append(s.Solvers, *ss)
	}
	return s
}

// percentiles computes exact order statistics of xs (nearest-rank).
func percentiles(xs []float64) Percentiles {
	p := Percentiles{N: len(xs)}
	if len(xs) == 0 {
		return p
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	p.P50 = stats.NearestRank(sorted, 0.50)
	p.P95 = stats.NearestRank(sorted, 0.95)
	p.P99 = stats.NearestRank(sorted, 0.99)
	p.Max = sorted[len(sorted)-1]
	return p
}
