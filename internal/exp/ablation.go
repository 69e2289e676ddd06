package exp

import (
	"fmt"
	"math"
	"slices"

	"synts/internal/core"
	"synts/internal/isa"
	"synts/internal/netlist"
	"synts/internal/razor"
	"synts/internal/report"
	"synts/internal/telemetry"
	"synts/internal/timing"
	"synts/internal/trace"
)

// Ablation studies for the design choices DESIGN.md calls out: the adder
// architecture inside the ALU stages, the glitch-free levelized delay model
// versus the exact event-driven one, and the sampling-slot granularity of
// the online estimator.

// AdderAblation measures, for each adder architecture, the STA critical
// path, the cell count and the error probabilities a real operand stream
// sensitizes. The choice of prefix network is what places typical
// sensitized delays relative to t_nom — the ripple adder's linear chain is
// almost never exercised end-to-end, which would flatten every err(r)
// curve to zero over the usable TSR range.
func AdderAblation(b *Bench) (*report.Table, error) {
	// Collect the SimpleALU-class adder operand stream of thread 0.
	var ops []isa.Inst
	for _, iv := range b.Streams[0].Intervals {
		for _, in := range iv {
			if in.Op.Class() == isa.ClassSimple {
				ops = append(ops, in)
			}
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("exp: %s thread 0 has no SimpleALU instructions", b.Name)
	}
	t := &report.Table{
		Title: fmt.Sprintf("Ablation: adder architecture (32-bit, %s thread 0, %d add-class vectors)",
			b.Name, len(ops)),
		Headers: []string{"adder", "cells", "STA (ps)", "err(0.64)", "err(0.784)", "err(0.928)"},
	}
	for _, kind := range []netlist.AdderKind{netlist.AdderRipple, netlist.AdderBrentKung, netlist.AdderKoggeStone} {
		n := netlist.NewAdderNetlist(kind, 32)
		an := timing.NewAnalyzer(n)
		crit := an.CriticalPath()
		in := make([]bool, len(n.Inputs))
		aBus, bBus := n.InputBus("a"), n.InputBus("b")
		delays := make([]float64, 0, len(ops))
		for i, op := range ops {
			n.SetBusUint(in, aBus, uint64(op.A))
			n.SetBusUint(in, bBus, uint64(op.B))
			if i == 0 {
				an.Reset(in)
				continue
			}
			delays = append(delays, an.Step(in))
		}
		p := trace.NewProfile(crit, delays)
		t.AddRow(kind.String(), len(n.Gates), crit, p.Err(0.64), p.Err(0.784), p.Err(0.928))
	}
	return t, nil
}

// DelayModelAblation compares the levelized transition-arrival model with
// the exact event-driven (glitch-aware) simulator on a bounded window of a
// real stream: per-vector delay agreement and the err(r) curves both models
// induce.
func DelayModelAblation(b *Bench, window int) (*report.Table, error) {
	iv := b.Streams[0].Intervals[0]
	if len(iv) > window {
		iv = iv[:window]
	}
	sc := trace.NewStageCircuit(trace.SimpleALU)
	lv := timing.NewAnalyzer(sc.Netlist)
	ev := timing.NewEventSim(sc.Netlist)
	var dl, de []float64
	primed := false
	for _, in := range iv {
		if !sc.Drives(in) {
			dl = append(dl, 0)
			de = append(de, 0)
			continue
		}
		vec := sc.Vector(in)
		if !primed {
			lv.Reset(vec)
			ev.Reset(vec)
			primed = true
			continue
		}
		dl = append(dl, lv.Step(vec))
		de = append(de, ev.Step(vec))
	}
	var agree int
	var maxGap float64
	for i := range dl {
		gap := de[i] - dl[i]
		if gap < 0 {
			gap = -gap
		}
		if gap <= 1e-9 {
			agree++
		}
		if gap > maxGap {
			maxGap = gap
		}
	}
	pl, pe := trace.NewProfile(sc.TCrit, dl), trace.NewProfile(sc.TCrit, de)
	t := &report.Table{
		Title: fmt.Sprintf("Ablation: delay model (SimpleALU, %s, %d vectors): levelized vs event-driven",
			b.Name, len(dl)),
		Headers: []string{"quantity", "levelized", "event-driven"},
	}
	t.AddRow("err(0.64)", pl.Err(0.64), pe.Err(0.64))
	t.AddRow("err(0.784)", pl.Err(0.784), pe.Err(0.784))
	t.AddRow("err(0.928)", pl.Err(0.928), pe.Err(0.928))
	t.AddRow("exact agreement", fmt.Sprintf("%.1f%%", 100*float64(agree)/float64(max(len(dl), 1))), "-")
	t.AddRow("max |gap| (ps)", maxGap, "-")
	return t, nil
}

// GranuleAblation sweeps the sampling-rotation granule and reports the mean
// absolute estimation error against the true error probabilities over one
// interval, plus the resulting online cost. Large granules recreate the
// contiguous Fig 4.7 slots, which alias against loop structure.
func GranuleAblation(b *Bench, stage trace.Stage, interval int) (*report.Table, error) {
	profs, err := b.Profiles(stage)
	if err != nil {
		return nil, err
	}
	cfg := Platform(stage, b.Opts)
	ps := make([]*trace.Profile, len(profs))
	ths := make([]core.Thread, len(profs))
	for t := range profs {
		ps[t] = profs[t][interval]
		ths[t] = ps[t].CoreThread()
	}
	budgets, per := samplingBudgets(ps)
	nsamp := slices.Max(budgets)
	_, off := core.SolvePoly(cfg, ths, ThetaGrid(cfg, [][]core.Thread{ths}, []float64{1})[0])
	theta := ThetaGrid(cfg, [][]core.Thread{ths}, []float64{1})[0]

	t := &report.Table{
		Title: fmt.Sprintf("Ablation: sampling granule (%s, %s, barrier %d, Nsamp=%d)",
			b.Name, stage, interval, nsamp),
		Headers: []string{"granule", "mean |est err - actual err|", "online/offline cost"},
	}
	for _, g := range []int{1, 4, 8, 32, 128, nsamp/len(cfg.TSRs) + 1} {
		if g <= 0 {
			continue
		}
		est := razor.SamplingEstimator(telemetry.Scope{}, ps, cfg.TSRs, budgets, cfg.CPenalty, g)
		var mae float64
		var cnt int
		for ti := range ps {
			for k, r := range cfg.TSRs {
				d := est(ti, k) - ps[ti].Err(r)
				if d < 0 {
					d = -d
				}
				mae += d
				cnt++
			}
		}
		res := core.SolveOnline(cfg, ths, est, core.OnlineConfig{NSamp: per}, theta)
		label := fmt.Sprint(g)
		if g == nsamp/len(cfg.TSRs)+1 {
			label += " (contiguous slots)"
		}
		t.AddRow(label, mae/float64(max(cnt, 1)), res.Metrics.Cost/off.Cost)
	}
	return t, nil
}

// RecoveryAblation sweeps the Razor recovery penalty C_penalty — the knob
// of De Kruijf et al.'s unified timing-speculation model [7], from which
// Eq. 4.1 is taken (the thesis fixes it at 5 cycles). Cheaper recovery
// tolerates more aggressive speculation; expensive recovery pushes the
// optimal TSR back toward 1 and erodes SynTS' margin over No-TS.
func RecoveryAblation(b *Bench, stage trace.Stage) (*report.Table, error) {
	ivs, err := b.Intervals(stage)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: fmt.Sprintf("Ablation: recovery penalty (%s, %s, theta w=1)", b.Name, stage),
		Headers: []string{"C_penalty (cycles)", "critical-thread optimal TSR",
			"SynTS EDP vs Nominal", "SynTS EDP vs No-TS"},
	}
	profs, err := b.Profiles(stage)
	if err != nil {
		return nil, err
	}
	for _, cpen := range []float64{1, 5, 20, 50} {
		cfg := Platform(stage, b.Opts)
		cfg.CPenalty = cpen
		theta := ThetaGrid(cfg, ivs, []float64{1})[0]
		syn := SolveAll(cfg, ivs, core.SolvePoly, theta)
		nom := SolveAll(cfg, ivs, core.SolveNominal, theta)
		nots := SolveAll(cfg, ivs, core.SolveNoTS, theta)
		rOpt := OptimalTSR(cfg, profs[0][0].CoreThread())
		t.AddRow(cpen, rOpt, syn.EDP()/nom.EDP(), syn.EDP()/nots.EDP())
	}
	return t, nil
}

// JointStageStudy quantifies what the thesis' per-stage analysis leaves
// implicit: in a real Razor pipeline an instruction is flagged if *any*
// stage misses timing, so the per-instruction error probability composes
// across Decode, SimpleALU and ComplexALU. The table reports, per TSR, the
// exact joint rate (per-instruction correlation included), each stage's
// marginal, and the independence approximation.
func JointStageStudy(b *Bench, thread, interval int) (*report.Table, error) {
	ps := make([]*trace.Profile, 0, 3)
	stageNames := make([]string, 0, 3)
	for _, st := range trace.Stages() {
		profs, err := b.Profiles(st)
		if err != nil {
			return nil, err
		}
		ps = append(ps, profs[thread][interval])
		stageNames = append(stageNames, st.String())
	}
	t := &report.Table{
		Title: fmt.Sprintf("Joint multi-stage error analysis (%s, thread %d, barrier %d)",
			b.Name, thread, interval),
		Headers: []string{"TSR", "Decode", "SimpleALU", "ComplexALU", "joint (exact)", "independence"},
	}
	for _, r := range TSRs() {
		res, err := razor.JointReplayScoped(b.Name, stageNames, ps, r)
		if err != nil {
			return nil, err
		}
		n := float64(res.Instructions)
		t.AddRow(r,
			float64(res.StageErrors[0])/n,
			float64(res.StageErrors[1])/n,
			float64(res.StageErrors[2])/n,
			res.ErrorRate(), res.Independent)
	}
	return t, nil
}

// PredictionStudy closes the loop the thesis leaves to citation: §6.2
// assumes each thread's instruction count N_i is known "from offline
// characterization or using online workload prediction techniques". This
// study runs online SynTS across every barrier interval with N_i supplied
// by (a) the oracle, (b) a last-value/periodic predictor keyed to the
// benchmark's phase period, and (c) an EWMA — reporting the prediction
// error and the EDP cost of imperfect N_i.
func PredictionStudy(b *Bench, stage trace.Stage) (*report.Table, error) {
	profs, err := b.Profiles(stage)
	if err != nil {
		return nil, err
	}
	cfg := Platform(stage, b.Opts)
	ivs, err := b.Intervals(stage)
	if err != nil {
		return nil, err
	}
	theta := ThetaGrid(cfg, ivs, []float64{1})[0]
	nThreads := len(profs)
	nIv := len(profs[0])

	type predictorCase struct {
		name string
		p    core.NPredictor // nil = oracle
	}
	cases := []predictorCase{
		{"oracle N_i", nil},
		{"periodic(3)", core.NewPeriodicPredictor(nThreads, 3)},
		{"EWMA(0.5)", core.NewEWMAPredictor(nThreads, 0.5)},
	}
	t := &report.Table{
		Title: fmt.Sprintf("Workload prediction study (%s, %s): online SynTS with predicted N_i",
			b.Name, stage),
		Headers: []string{"N_i source", "mean |N err| %", "total EDP vs oracle"},
	}
	var oracleEDP float64
	for _, pc := range cases {
		var tot Totals
		var nErrSum float64
		var nErrCnt int
		for ii := 0; ii < nIv; ii++ {
			ps := make([]*trace.Profile, nThreads)
			actual := make([]core.Thread, nThreads)
			empty := true
			for ti := range profs {
				ps[ti] = profs[ti][ii]
				actual[ti] = ps[ti].CoreThread()
				if ps[ti].N > 0 {
					empty = false
				}
			}
			if empty {
				continue
			}
			solveWith := actual
			if pc.p != nil {
				solveWith = core.PredictThreads(pc.p, actual)
				for ti := range actual {
					if actual[ti].N > 0 {
						nErrSum += math.Abs(solveWith[ti].N-actual[ti].N) / actual[ti].N
						nErrCnt++
					}
					pc.p.Observe(ti, actual[ti].N)
				}
			}
			budgets, per := samplingBudgets(ps)
			est := razor.SamplingEstimator(telemetry.Scope{}, ps, cfg.TSRs, budgets, cfg.CPenalty, razor.SamplingGranule)
			// Decide with predicted N, charge with actual N: substitute the
			// predicted workload into the solver inputs only.
			estForSolve := make([]core.Thread, nThreads)
			for ti := range solveWith {
				rates := make([]float64, len(cfg.TSRs))
				for k := range cfg.TSRs {
					rates[k] = est(ti, k)
				}
				estForSolve[ti] = core.Thread{
					N:       solveWith[ti].N * (1 - NSampFrac),
					CPIBase: solveWith[ti].CPIBase,
					Err:     core.EstimatedErrFunc(cfg, rates),
				}
			}
			a, _ := core.SolvePoly(cfg, estForSolve, theta)
			// Charge: sampling at nominal V plus the remainder at `a`,
			// against the actual workload.
			sampTime, sampEnergyPer := core.SamplingCost(cfg, actual, per)
			sampEnergy := 0.0
			for _, e := range sampEnergyPer {
				sampEnergy += e
			}
			actRem := make([]core.Thread, nThreads)
			for ti := range actual {
				nS := per[ti]
				if nS > actual[ti].N {
					nS = actual[ti].N
				}
				actRem[ti] = core.Thread{N: actual[ti].N - nS, CPIBase: actual[ti].CPIBase, Err: actual[ti].Err}
			}
			run := cfg.Evaluate(actRem, a, theta)
			tot.Energy += run.Energy + sampEnergy
			tExec := 0.0
			for ti := range actual {
				if tt := sampTime[ti] + run.ThreadTimes[ti]; tt > tExec {
					tExec = tt
				}
			}
			tot.Time += tExec
		}
		if pc.p == nil {
			oracleEDP = tot.EDP()
		}
		meanErr := 0.0
		if nErrCnt > 0 {
			meanErr = 100 * nErrSum / float64(nErrCnt)
		}
		t.AddRow(pc.name, meanErr, tot.EDP()/oracleEDP)
	}
	return t, nil
}

// VariationAblation reports how the process-variation sigma used when
// instantiating gates moves the STA period and the error probabilities of a
// stream — the knob that turns the idealised "every instance at the
// library nominal" circuit into a realistic die.
func VariationAblation(b *Bench) (*report.Table, error) {
	var ops []isa.Inst
	for _, in := range b.Streams[0].Intervals[0] {
		if in.Op.Class() == isa.ClassSimple {
			ops = append(ops, in)
		}
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Ablation: per-gate delay variation (32-bit Kogge-Stone adder, %s stream)", b.Name),
		Headers: []string{"sigma", "STA (ps)", "err(0.64)", "err(0.784)", "err(0.928)"},
	}
	for _, sigma := range []float64{0, 0.03, 0.06, 0.12} {
		bld := netlist.NewBuilder(fmt.Sprintf("ablate-var-%v", sigma))
		bld.SetVariation(sigma)
		a := bld.InputBusN("a", 32)
		x := bld.InputBusN("b", 32)
		sum, cout := netlist.PrefixAdder(bld, a.Nets, x.Nets, bld.Const(false))
		bld.OutputBusN("s", sum)
		bld.Output("cout", cout)
		n := bld.MustBuild()
		an := timing.NewAnalyzer(n)
		crit := an.CriticalPath()
		in := make([]bool, len(n.Inputs))
		var delays []float64
		for i, op := range ops {
			n.SetBusUint(in, n.InputBus("a"), uint64(op.A))
			n.SetBusUint(in, n.InputBus("b"), uint64(op.B))
			if i == 0 {
				an.Reset(in)
				continue
			}
			delays = append(delays, an.Step(in))
		}
		p := trace.NewProfile(crit, delays)
		t.AddRow(sigma, crit, p.Err(0.64), p.Err(0.784), p.Err(0.928))
	}
	return t, nil
}
