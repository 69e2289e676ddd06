package exp

import (
	"context"
	"fmt"
	"math"

	"synts/internal/core"
	"synts/internal/gpgpu"
	"synts/internal/mcsim"
	"synts/internal/obs"
	"synts/internal/pool"
	"synts/internal/razor"
	"synts/internal/report"
	"synts/internal/telemetry"
	"synts/internal/trace"
	"synts/internal/vscale"
)

// Table51 regenerates Table 5.1: supply voltage versus nominal clock period
// multiplier, from the paper's values and from our calibrated ring-
// oscillator (alpha-power) model.
func Table51() *report.Table {
	t := &report.Table{
		Title:   "Table 5.1: Voltage versus Nominal clock period",
		Headers: []string{"Vdd (V)", "tnom paper (x)", "tnom ring-osc model (x)"},
	}
	m := vscale.Default22nm()
	for i, v := range vscale.PaperVoltages() {
		t.AddRow(v, vscale.PaperMultipliers()[i], m.TNom(v))
	}
	return t
}

// Fig12 regenerates the Fig 1.2 trade-off: per-instruction execution time
// versus speculative clock ratio for one thread, showing the optimum f_s
// strictly above the rated frequency (r < 1).
func Fig12(b *Bench) (*report.Series, error) {
	profs, err := b.Profiles(trace.SimpleALU)
	if err != nil {
		return nil, err
	}
	cfg := Platform(trace.SimpleALU, b.Opts)
	p := profs[0][0]
	th := p.CoreThread()
	s := &report.Series{
		Title:  "Fig 1.2: Timing speculation vs. error probability (radix thread 0, SimpleALU)",
		XLabel: "TSR r",
		Names:  []string{"err(r)", "SPI normalized", "speedup vs r=1"},
	}
	base := cfg.SPI(th, cfg.Voltages[0], 1)
	for r := 0.60; r <= 1.0+1e-9; r += 0.02 {
		spi := cfg.SPI(th, cfg.Voltages[0], r)
		s.Add(r, th.Err(r), spi/base, base/spi)
	}
	return s, nil
}

// OptimalTSR returns the ratio minimising a thread's SPI — Fig 1.2's f_s.
func OptimalTSR(cfg *core.Config, th core.Thread) float64 {
	best, bestR := math.Inf(1), 1.0
	for r := 0.60; r <= 1.0+1e-9; r += 0.005 {
		if spi := cfg.SPI(th, cfg.Voltages[0], r); spi < best {
			best, bestR = spi, r
		}
	}
	return bestR
}

// Fig13 regenerates the Fig 1.3 execution snapshot: the cycle-level
// multicore simulator runs the benchmark and renders per-core busy/wait
// timelines across the barrier intervals — first at nominal V/f, then
// under per-interval SynTS assignments, so the shrinking wait segments are
// visible. Returns the rendered lines and the two simulations' results.
func Fig13(b *Bench, stage trace.Stage, width int) ([]string, *mcsim.Result, *mcsim.Result, error) {
	profs, err := b.Profiles(stage)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := Platform(stage, b.Opts)
	in := mcsim.Input{
		Streams:  b.Streams,
		Profiles: profs,
		Platform: cfg,
		Cache:    b.Opts.Cache,
	}
	nCores := len(b.Streams)
	nominal := core.Assignment{VIdx: make([]int, nCores), RIdx: make([]int, nCores)}
	for i := range nominal.RIdx {
		nominal.RIdx[i] = len(cfg.TSRs) - 1
	}
	in.Assignments = []core.Assignment{nominal}
	base, err := mcsim.Run(in)
	if err != nil {
		return nil, nil, nil, err
	}

	ivs, err := b.Intervals(stage)
	if err != nil {
		return nil, nil, nil, err
	}
	theta := ThetaGrid(cfg, ivs, []float64{1})[0]
	assigns := make([]core.Assignment, len(ivs))
	for ii, ths := range ivs {
		if emptyInterval(ths) {
			assigns[ii] = nominal
			continue
		}
		assigns[ii], _ = core.SolvePoly(cfg, ths, theta)
	}
	in.Assignments = assigns
	opt, err := mcsim.Run(in)
	if err != nil {
		return nil, nil, nil, err
	}

	lines := []string{
		fmt.Sprintf("Fig 1.3: Multi-threaded workload execution (%s, %s; '#' busy, '.' barrier wait, '|' barrier)", b.Name, stage),
		fmt.Sprintf("nominal V/f (total time %.3g, energy %.3g):", base.TotalTime, base.TotalEnergy),
	}
	lines = append(lines, base.Timeline(width)...)
	lines = append(lines, fmt.Sprintf("SynTS per-interval assignments (total time %.3g, energy %.3g):", opt.TotalTime, opt.TotalEnergy))
	// Scale the SynTS timeline to the same time axis for visual comparison.
	scaled := int(float64(width) * opt.TotalTime / base.TotalTime)
	if scaled < 1 {
		scaled = 1
	}
	lines = append(lines, opt.Timeline(scaled)...)
	return lines, base, opt, nil
}

// Fig14 regenerates Fig 1.4: per-thread arrival times at each barrier under
// nominal V/f — the idle slack SynTS will exploit.
func Fig14(b *Bench) (*report.Series, error) {
	profs, err := b.Profiles(trace.SimpleALU)
	if err != nil {
		return nil, err
	}
	cfg := Platform(trace.SimpleALU, b.Opts)
	names := make([]string, len(profs)+1)
	for t := range profs {
		names[t] = fmt.Sprintf("T%d arrival", t)
	}
	names[len(profs)] = "max slack %"
	s := &report.Series{
		Title:  fmt.Sprintf("Fig 1.4: Threads arriving at barrier at different times (%s, nominal V/f)", b.Name),
		XLabel: "barrier",
		Names:  names,
	}
	for ii := 0; ii < len(profs[0]); ii++ {
		times := make([]float64, len(profs))
		worst := 0.0
		for t := range profs {
			p := profs[t][ii]
			times[t] = float64(p.N) * p.CPIBase * cfg.TNom(cfg.Voltages[0])
			if times[t] > worst {
				worst = times[t]
			}
		}
		slack := 0.0
		for _, tm := range times {
			if worst > 0 {
				if sl := (worst - tm) / worst; sl > slack {
					slack = sl
				}
			}
		}
		s.Add(float64(ii), append(times, slack*100)...)
	}
	return s, nil
}

// Fig35 regenerates Fig 3.5: per-thread timing error probability versus
// normalized clock period for one barrier interval.
func Fig35(b *Bench, stage trace.Stage, interval int) (*report.Series, error) {
	profs, err := b.Profiles(stage)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(profs))
	for t := range profs {
		names[t] = fmt.Sprintf("T%d", t)
	}
	s := &report.Series{
		Title: fmt.Sprintf("Fig 3.5: Error probability vs normalized clock period (%s, %s, barrier %d)",
			b.Name, stage, interval),
		XLabel: "r",
		Names:  names,
	}
	for r := 0.60; r <= 1.0+1e-9; r += 0.02 {
		ys := make([]float64, len(profs))
		for t := range profs {
			ys[t] = profs[t][interval].Err(r)
		}
		s.Add(r, ys...)
	}
	return s, nil
}

// Fig36 regenerates the Fig 3.6 motivational walk-through: (a) nominal,
// (b) frequency up-scaling on all cores (step 1), (c) voltage down-scaling
// of the non-critical threads (step 2).
//
// Like the thesis’ own figure — which is "generated based on the error
// probability curve in Figure 3.5" under the stated assumption that "the
// threads are perfectly balanced with perfect work distribution and
// perfect cache latencies", and which uses a 0.9 V level absent from
// Table 5.1 — this driver takes the *measured* per-thread error curves and
// idealises everything else: equal N, unit CPI, and a finer illustrative
// voltage grid. The quantitative experiments (Figs 6.11–6.18) use the real
// profiles and the real platform.
func Fig36(b *Bench, stage trace.Stage, interval int) (*report.Table, error) {
	profs, err := b.Profiles(stage)
	if err != nil {
		return nil, err
	}
	platform := Platform(stage, b.Opts)
	table := vscale.PaperTable()
	tcrit := platform.TNom(1.0)
	cfg := &core.Config{
		Voltages: []float64{1.0, 0.95, 0.9, 0.85, 0.8},
		TNom:     func(v float64) float64 { return tcrit * table.TNom(v) },
		TSRs:     platform.TSRs,
		CPenalty: platform.CPenalty,
		Alpha:    1,
	}
	ths := make([]core.Thread, len(profs))
	for t := range profs {
		ths[t] = core.Thread{N: 10000, CPIBase: 1, Err: profs[t][interval].Err}
	}
	tbl := &report.Table{
		Title: fmt.Sprintf("Fig 3.6: SynTS step-by-step (%s, %s, barrier %d)", b.Name, stage, interval),
		Headers: []string{"step", "T0 time", "T1 time", "T2 time", "T3 time",
			"texec (norm)", "energy (norm)"},
	}
	nomA, nom := core.SolveNominal(cfg, ths, 0)
	_ = nomA
	add := func(label string, m core.Metrics) {
		cells := []interface{}{label}
		for _, t := range m.ThreadTimes {
			cells = append(cells, t/nom.TExec)
		}
		for len(cells) < 5 {
			cells = append(cells, "-")
		}
		cells = append(cells, m.TExec/nom.TExec, m.Energy/nom.Energy)
		tbl.AddRow(cells...)
	}
	add("(a) nominal", nom)

	// Step 1: common frequency up-scaling at nominal voltage: pick the
	// shared TSR minimising the barrier time.
	bestR, bestT := len(cfg.TSRs)-1, math.Inf(1)
	for k := range cfg.TSRs {
		a := core.Assignment{VIdx: make([]int, len(ths)), RIdx: make([]int, len(ths))}
		for i := range ths {
			a.RIdx[i] = k
		}
		m := cfg.Evaluate(ths, a, 0)
		if m.TExec < bestT {
			bestT, bestR = m.TExec, k
		}
	}
	a1 := core.Assignment{VIdx: make([]int, len(ths)), RIdx: make([]int, len(ths))}
	for i := range ths {
		a1.RIdx[i] = bestR
	}
	m1 := cfg.Evaluate(ths, a1, 0)
	add(fmt.Sprintf("(b) step 1: all cores r=%.3f", cfg.TSRs[bestR]), m1)

	// Step 2: keep the critical thread; every other thread drops to its
	// minimum-energy configuration finishing by step 1's texec.
	a2 := a1.Clone()
	for i := range ths {
		if m1.ThreadTimes[i] >= m1.TExec-1e-9 {
			continue // critical thread keeps its step-1 setting
		}
		bestEn := math.Inf(1)
		for j := range cfg.Voltages {
			for k := range cfg.TSRs {
				tTime := cfg.ThreadTime(ths[i], cfg.Voltages[j], cfg.TSRs[k])
				en := cfg.ThreadEnergy(ths[i], cfg.Voltages[j], cfg.TSRs[k])
				if tTime <= m1.TExec+1e-9 && en < bestEn {
					bestEn = en
					a2.VIdx[i], a2.RIdx[i] = j, k
				}
			}
		}
	}
	m2 := cfg.Evaluate(ths, a2, 0)
	add("(c) step 2: V down-scaling on slack", m2)
	return tbl, nil
}

// Fig47 regenerates the Fig 4.7 sampling-phase schedule.
func Fig47(opts Options, intervalN float64) *report.Table {
	cfg := Platform(trace.SimpleALU, opts)
	nsamp := opts.NSampFrac * intervalN
	slots := core.SamplingSchedule(cfg, core.OnlineConfig{NSamp: nsamp, VSampIdx: 0})
	t := &report.Table{
		Title:   fmt.Sprintf("Fig 4.7: Sampling phase schedule (N_samp = %.0f = %.0f%% of interval)", nsamp, opts.NSampFrac*100),
		Headers: []string{"slot", "TSR", "instructions", "voltage"},
	}
	for i, sl := range slots {
		t.AddRow(i, cfg.TSRs[sl.RIdx], sl.Instrs, cfg.Voltages[0])
	}
	return t
}

// Fig510 regenerates the Fig 5.10 GPGPU study: per-VALU Hamming-distance
// histograms (compacted to coarse bins) for the first 6 lanes plus the
// cross-lane homogeneity summary.
func Fig510(program string, n int, seed int64) (*report.Table, gpgpu.Homogeneity, error) {
	p, err := gpgpu.ProgramByName(program, n, seed)
	if err != nil {
		return nil, gpgpu.Homogeneity{}, err
	}
	hs := gpgpu.HammingHistograms(p)
	t := &report.Table{
		Title:   fmt.Sprintf("Fig 5.10: Hamming distance histograms, %s (%d vector instructions)", program, n),
		Headers: []string{"VALU", "hd 0-4", "hd 5-9", "hd 10-14", "hd 15-19", "hd 20-24", "hd 25-32", "mean"},
	}
	for l := 0; l < 6; l++ {
		h := hs[l]
		bin := func(lo, hi int) float64 {
			var f float64
			for i := lo; i <= hi; i++ {
				f += h.Fraction(i)
			}
			return f
		}
		t.AddRow(fmt.Sprintf("VALU %d", l), bin(0, 4), bin(5, 9), bin(10, 14),
			bin(15, 19), bin(20, 24), bin(25, 32), h.Mean())
	}
	return t, gpgpu.Analyze(p), nil
}

// ParetoPoint is one (theta-weight, normalized time, normalized energy)
// sample of an approach's trade-off curve.
type ParetoPoint struct {
	Weight float64
	Time   float64
	Energy float64
}

// ParetoResult holds Figs 6.11–6.16 data: one curve per approach,
// normalized to the Nominal baseline.
type ParetoResult struct {
	Bench  string
	Stage  trace.Stage
	Curves map[string][]ParetoPoint
}

// Pareto sweeps theta and solves every approach offline (Figs 6.11–6.16).
// The (solver, theta) grid fans out over the worker pool; every point lands
// at its own index, so the curves are identical to a serial sweep.
func Pareto(b *Bench, stage trace.Stage) (*ParetoResult, error) {
	return ParetoCtx(context.Background(), b, stage)
}

// ParetoCtx is Pareto with a cancellation context: (solver, theta) grid
// points not yet submitted when ctx is cancelled are skipped and ctx's
// error is returned.
func ParetoCtx(ctx context.Context, b *Bench, stage trace.Stage) (*ParetoResult, error) {
	defer obs.StartSpan("exp.pareto:" + b.Name + ":" + stage.String()).End()
	ivs, err := b.IntervalsCtx(ctx, stage)
	if err != nil {
		return nil, err
	}
	cfg := Platform(stage, b.Opts)
	nom := Nominal(cfg, ivs)
	thetas := ThetaGrid(cfg, ivs, DefaultWeights())
	var solvers []core.Solver
	for _, solver := range core.Solvers() {
		if solver.Name == "Nominal" {
			continue // the normalisation reference: the (1,1) point
		}
		solvers = append(solvers, solver)
	}
	curves := make([][]ParetoPoint, len(solvers))
	for si := range curves {
		curves[si] = make([]ParetoPoint, len(thetas))
	}
	sc := telemetry.Scope{Bench: b.Name, Stage: stage.String()}
	if err := pool.ForEachCtx(ctx, 0, len(solvers)*len(thetas), func(i int) error {
		si, wi := i/len(thetas), i%len(thetas)
		tot := TimedSolveAll(sc, solvers[si].Name, cfg, ivs, solvers[si].Solve, thetas[wi])
		curves[si][wi] = ParetoPoint{
			Weight: DefaultWeights()[wi],
			Time:   tot.Time / nom.Time,
			Energy: tot.Energy / nom.Energy,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	res := &ParetoResult{Bench: b.Name, Stage: stage, Curves: map[string][]ParetoPoint{}}
	for si, solver := range solvers {
		res.Curves[solver.Name] = curves[si]
	}
	return res, nil
}

// Series renders the Pareto result in figure form.
func (p *ParetoResult) Series() *report.Series {
	names := []string{}
	for _, s := range core.Solvers() {
		if s.Name == "Nominal" {
			continue
		}
		names = append(names, s.Name+" time", s.Name+" energy")
	}
	s := &report.Series{
		Title: fmt.Sprintf("Energy vs execution time, %s, %s (normalized to Nominal; theta sweep)",
			p.Bench, p.Stage),
		XLabel: "w",
		Names:  names,
	}
	n := len(p.Curves["SynTS"])
	for i := 0; i < n; i++ {
		ys := []float64{}
		w := 0.0
		for _, sv := range core.Solvers() {
			if sv.Name == "Nominal" {
				continue
			}
			pt := p.Curves[sv.Name][i]
			w = pt.Weight
			ys = append(ys, pt.Time, pt.Energy)
		}
		s.Add(w, ys...)
	}
	return s
}

// BestEnergyAt returns the lowest normalized energy an approach reaches
// with normalized time <= tLimit, or +Inf if it never does.
func (p *ParetoResult) BestEnergyAt(approach string, tLimit float64) float64 {
	pt, ok := p.BestPointAt(approach, tLimit)
	if !ok {
		return math.Inf(1)
	}
	return pt.Energy
}

// BestPointAt returns the swept point with the lowest energy among those
// with normalized time <= tLimit.
func (p *ParetoResult) BestPointAt(approach string, tLimit float64) (ParetoPoint, bool) {
	best := ParetoPoint{Energy: math.Inf(1)}
	ok := false
	for _, pt := range p.Curves[approach] {
		if pt.Time <= tLimit && pt.Energy < best.Energy {
			best = pt
			ok = true
		}
	}
	return best, ok
}

// EnergyAdvantageVsPerCore compares SynTS and Per-core TS at a matched
// time budget: per-core's best point within the nominal budget sets the
// deadline, and SynTS' best energy under that same deadline is compared to
// it. Positive = SynTS reaches lower energy at no time cost. Returns the
// advantage fraction and the budget used; ok is false when either curve
// has no point within the nominal budget (the non-convergence the thesis
// notes for some ComplexALU cases).
func (p *ParetoResult) EnergyAdvantageVsPerCore() (adv, budget float64, ok bool) {
	pc, okPC := p.BestPointAt("Per-core TS", 1.0)
	if !okPC {
		return 0, 0, false
	}
	syn, okSyn := p.BestPointAt("SynTS", pc.Time+1e-9)
	if !okSyn {
		return 0, 0, false
	}
	return 1 - syn.Energy/pc.Energy, pc.Time, true
}

// BestTime returns the lowest normalized execution time an approach reaches
// anywhere on its curve.
func (p *ParetoResult) BestTime(approach string) float64 {
	best := math.Inf(1)
	for _, pt := range p.Curves[approach] {
		if pt.Time < best {
			best = pt.Time
		}
	}
	return best
}

// Fig617 compares actual and online-estimated error probabilities for one
// barrier interval (Fig 6.17): per thread, err at each TSR level from the
// full trace versus from the sampling prefix.
func Fig617(b *Bench, stage trace.Stage, interval int) (*report.Series, error) {
	profs, err := b.Profiles(stage)
	if err != nil {
		return nil, err
	}
	cfg := Platform(stage, b.Opts)
	ps := make([]*trace.Profile, len(profs))
	for t := range profs {
		ps[t] = profs[t][interval]
	}
	budgets := samplingBudgets(ps, b.Opts.NSampFrac)
	est := razor.SamplingEstimatorBudgets(ps, cfg.TSRs, budgets, cfg.CPenalty, razor.SamplingGranule)
	names := []string{}
	for t := range ps {
		names = append(names, fmt.Sprintf("T%d", t), fmt.Sprintf("T%d est", t))
	}
	s := &report.Series{
		Title: fmt.Sprintf("Fig 6.17: Actual vs estimated error probability (%s, %s, barrier %d, Nsamp=%d..%d)",
			b.Name, stage, interval, minIntSlice(budgets), maxIntSlice(budgets)),
		XLabel: "TSR",
		Names:  names,
	}
	for k, r := range cfg.TSRs {
		ys := []float64{}
		for t := range ps {
			ys = append(ys, ps[t].Err(r), est(t, k))
		}
		s.Add(r, ys...)
	}
	return s, nil
}

// EDPRow is one benchmark's Fig 6.18 data for a stage: EDPs normalized to
// offline SynTS.
type EDPRow struct {
	Bench         string
	SynTSOnline   float64
	PerCoreTS     float64
	NoTS          float64
	Nominal       float64
	OfflineEDPAbs float64
}

// Fig618 computes the normalized-EDP comparison (Fig 6.18) for one stage
// across the given benchmarks, at the balanced theta (w = 1). Benchmarks
// fan out over the worker pool; each row lands at its benchmark's index.
func Fig618(benches []*Bench, stage trace.Stage) ([]EDPRow, error) {
	return Fig618Ctx(context.Background(), benches, stage)
}

// Fig618Ctx is Fig618 with a cancellation context threaded through the
// per-benchmark fan-out and each row's profile builds and online solve.
func Fig618Ctx(ctx context.Context, benches []*Bench, stage trace.Stage) ([]EDPRow, error) {
	rows := make([]EDPRow, len(benches))
	if err := pool.ForEachCtx(ctx, 0, len(benches), func(i int) error {
		b := benches[i]
		ivs, err := b.IntervalsCtx(ctx, stage)
		if err != nil {
			return err
		}
		cfg := Platform(stage, b.Opts)
		theta := ThetaGrid(cfg, ivs, []float64{1})[0]

		sc := telemetry.Scope{Bench: b.Name, Stage: stage.String()}
		offline := TimedSolveAll(sc, "SynTS", cfg, ivs, core.SolvePoly, theta)
		percore := TimedSolveAll(sc, "Per-core TS", cfg, ivs, core.SolvePerCore, theta)
		nots := TimedSolveAll(sc, "No TS", cfg, ivs, core.SolveNoTS, theta)
		nominal := TimedSolveAll(sc, "Nominal", cfg, ivs, core.SolveNominal, theta)
		online, err := SolveOnlineAllCtx(ctx, b, cfg, stage, theta)
		if err != nil {
			return err
		}
		norm := offline.EDP()
		rows[i] = EDPRow{
			Bench:         b.Name,
			SynTSOnline:   online.EDP() / norm,
			PerCoreTS:     percore.EDP() / norm,
			NoTS:          nots.EDP() / norm,
			Nominal:       nominal.EDP() / norm,
			OfflineEDPAbs: norm,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// samplingBudgets sizes N_samp per thread for one barrier interval: each
// thread samples the configured fraction of its own instruction count, so
// that — as the thesis does for FMM's short intervals — short threads keep
// their sampling proportionate while long threads still collect enough
// error events for tight estimates.
func samplingBudgets(ps []*trace.Profile, frac float64) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = int(frac * float64(p.N))
	}
	return out
}

func minIntSlice(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxIntSlice(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// SolveOnlineAll runs online SynTS (sampling + Poly) over every interval.
// When the telemetry ledger is recording, each interval contributes its
// estimate events (from the scoped sampling estimator), one decision
// event per core — with the genuine estimated-vs-replayed error split the
// offline solvers cannot have — one replay event per core (the full-trace
// replay at the chosen TSR that grounds act_err), and a barrier event.
func SolveOnlineAll(b *Bench, cfg *core.Config, stage trace.Stage, theta float64) (Totals, error) {
	return SolveOnlineAllCtx(context.Background(), b, cfg, stage, theta)
}

// SolveOnlineAllCtx is SolveOnlineAll with a cancellation context, checked
// between barrier intervals.
func SolveOnlineAllCtx(ctx context.Context, b *Bench, cfg *core.Config, stage trace.Stage, theta float64) (Totals, error) {
	defer obs.StartSpan("exp.solve:SynTS-online").End()
	profs, err := b.ProfilesCtx(ctx, stage)
	if err != nil {
		return Totals{}, err
	}
	sc := telemetry.Scope{Bench: b.Name, Stage: stage.String()}
	emit := telemetry.Enabled()
	var tot Totals
	// Guard band (graceful degradation): screen each interval's sampled
	// estimates before SolvePoly may act on them. The divergence baseline is
	// a running per-level mean of previously *accepted* estimates, so a
	// corrupted sensor that jumps far above the aggregate is rejected even
	// when the corruption is otherwise plausible. With the fault injector
	// off the checks are false-positive-free (err(1) = 0 structurally and
	// isotonic pooling enforces monotonicity), so output is bit-identical to
	// an unguarded run.
	baseSum := make([]float64, len(cfg.TSRs))
	baseCnt := make([]float64, len(cfg.TSRs))
	guard := &core.GuardPolicy{Baseline: func(k int) (float64, bool) {
		if baseCnt[k] == 0 {
			return 0, false
		}
		return baseSum[k] / baseCnt[k], true
	}}
	nIv := len(profs[0])
	for ii := 0; ii < nIv; ii++ {
		if err := ctx.Err(); err != nil {
			return tot, err
		}
		ps := make([]*trace.Profile, len(profs))
		ths := make([]core.Thread, len(profs))
		nMax := 0
		for t := range profs {
			ps[t] = profs[t][ii]
			ths[t] = ps[t].CoreThread()
			if ps[t].N > nMax {
				nMax = ps[t].N
			}
		}
		if nMax == 0 {
			continue
		}
		budgets := samplingBudgets(ps, b.Opts.NSampFrac)
		est := razor.SamplingEstimatorScoped(sc, ps, cfg.TSRs, budgets, cfg.CPenalty, razor.SamplingGranule)
		per := make([]float64, len(budgets))
		for i, bn := range budgets {
			per[i] = float64(bn)
		}
		res := core.SolveOnline(cfg, ths, est, core.OnlineConfig{NSampPer: per, VSampIdx: 0, Guard: guard}, theta)
		tot.Energy += res.Metrics.Energy
		tot.Time += res.Metrics.TExec
		for i := range ths {
			if reason := res.Fallbacks[i]; reason != "" {
				if emit {
					telemetry.Record(telemetry.Event{
						Kind:     telemetry.KindFallback,
						Bench:    sc.Bench,
						Stage:    sc.Stage,
						Solver:   "SynTS-online",
						Theta:    theta,
						Interval: ii,
						Core:     i,
						V:        cfg.Voltages[0],
						TSR:      cfg.TSRs[len(cfg.TSRs)-1],
						Reason:   reason,
					})
				}
				continue
			}
			// Fold accepted estimates into the divergence baseline (the
			// estimator is deterministic, so re-querying is exact).
			for k := range cfg.TSRs {
				baseSum[k] += est(i, k)
				baseCnt[k]++
			}
		}
		if !emit {
			continue
		}
		for i, th := range ths {
			nSamp := math.Min(per[i], th.N)
			rem := core.Thread{N: th.N - nSamp, CPIBase: th.CPIBase, Err: th.Err}
			bd := cfg.Breakdown(rem, res.Assignment, i)
			// Ground act_err in a full-trace replay at the chosen TSR (the
			// replay event itself lands in the ledger too).
			rep, _ := razor.ReplayProfileScoped(sc, "SynTS-online", ps[i], bd.R, cfg.CPenalty)
			telemetry.Record(telemetry.Event{
				Kind:           telemetry.KindDecision,
				Bench:          sc.Bench,
				Stage:          sc.Stage,
				Solver:         "SynTS-online",
				Theta:          theta,
				Interval:       ii,
				Core:           i,
				V:              bd.V,
				TSR:            bd.R,
				EstErr:         res.Estimates[i](bd.R),
				ActErr:         rep.ErrorRate(),
				Replays:        float64(rep.Errors),
				Energy:         res.SamplingEnergyPer[i] + bd.Energy,
				Time:           res.Metrics.ThreadTimes[i],
				Instrs:         th.N,
				SampleBudget:   nSamp,
				IntervalCycles: th.N * th.CPIBase,
			})
		}
		telemetry.Record(telemetry.Event{
			Kind:     telemetry.KindBarrier,
			Bench:    sc.Bench,
			Stage:    sc.Stage,
			Solver:   "SynTS-online",
			Theta:    theta,
			Interval: ii,
			Core:     -1,
			Cores:    len(ths),
			Energy:   res.Metrics.Energy,
			Time:     res.Metrics.TExec,
		})
	}
	return tot, nil
}

// BarGroup renders Fig 6.18 rows.
func Fig618Bars(rows []EDPRow, stage trace.Stage) *report.BarGroup {
	bg := &report.BarGroup{
		Title: fmt.Sprintf("Fig 6.18 (%s): EDP normalized to SynTS (offline)", stage),
		Names: []string{"SynTS(online)", "Per-core TS", "No TS", "Nominal"},
	}
	for _, r := range rows {
		bg.Groups = append(bg.Groups, r.Bench)
		bg.Values = append(bg.Values, []float64{r.SynTSOnline, r.PerCoreTS, r.NoTS, r.Nominal})
	}
	return bg
}

// OverheadReport evaluates the §6.3 hardware accounting over the real
// generated netlists.
func OverheadReport() (*report.Table, core.Overheads, error) {
	in := core.DefaultOverheadInputs()
	var comb float64
	bits := 0
	for _, st := range trace.Stages() {
		sc := trace.NewStageCircuit(st)
		comb += sc.Netlist.Area()
		bits += len(sc.Netlist.Outputs) // Razor FFs guard each stage's output register
	}
	in.CombArea = comb
	in.PipeRegBits = bits
	ov, err := core.ComputeOverheads(in)
	if err != nil {
		return nil, ov, err
	}
	t := &report.Table{
		Title:   "Section 6.3: SynTS-online hardware overhead",
		Headers: []string{"quantity", "value"},
	}
	t.AddRow("combinational area (INV units)", comb)
	t.AddRow("Razor-guarded pipeline bits", bits)
	t.AddRow("area overhead vs core", fmt.Sprintf("%.2f%% (paper: 2.7%%)", ov.Area*100))
	t.AddRow("power overhead vs core", fmt.Sprintf("%.2f%% (paper: 3.41%%)", ov.Power*100))
	return t, ov, nil
}
