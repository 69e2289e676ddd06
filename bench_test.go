package synts_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the thesis' evaluation. Each benchmark regenerates its artefact from the
// simulation stack and prints it once (first run), then reports the
// headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Workload data is cached across
// benchmarks; the first benchmark touching a (benchmark, stage) pair pays
// the trace/profile construction cost.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"synts/internal/core"
	"synts/internal/exp"
	"synts/internal/milp"
	"synts/internal/netlist"
	"synts/internal/razor"
	"synts/internal/timing"
	"synts/internal/trace"
	"synts/internal/workload"
)

var (
	benchMu    sync.Mutex
	benchCache = map[string]*exp.Bench{}
	printOnce  = map[string]bool{}
)

func benchOpts() exp.Options {
	o := exp.DefaultOptions()
	// Size 1 keeps the full harness under two minutes; the canonical
	// EXPERIMENTS.md numbers use cmd/synts at -size 2, where the online
	// estimates are tighter. Custom metrics here are correspondingly
	// noisier.
	o.Size = 1
	return o
}

func loadBench(b *testing.B, name string) *exp.Bench {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if bd, ok := benchCache[name]; ok {
		return bd
	}
	bd, err := exp.LoadBench(name, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	benchCache[name] = bd
	return bd
}

// emit prints an artefact once per process so benchmark reruns don't flood
// the log.
func emit(name string, render func()) {
	benchMu.Lock()
	done := printOnce[name]
	printOnce[name] = true
	benchMu.Unlock()
	if !done {
		fmt.Printf("\n===== %s =====\n", name)
		render()
	}
}

func BenchmarkTable5_1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Table51()
		emit("Table 5.1", func() { t.Render(os.Stdout) })
	}
}

func BenchmarkFig1_2(b *testing.B) {
	bd := loadBench(b, "radix")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := exp.Fig12(bd)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 1.2", func() { s.Render(os.Stdout) })
	}
	profs, _ := bd.Profiles(trace.SimpleALU)
	cfg := exp.Platform(trace.SimpleALU, bd.Opts)
	b.ReportMetric(exp.OptimalTSR(cfg, profs[0][0].CoreThread()), "optimal-TSR")
}

func BenchmarkFig1_3(b *testing.B) {
	bd := loadBench(b, "fmm")
	if _, err := bd.Profiles(trace.SimpleALU); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		lines, base, opt, err := exp.Fig13(bd, trace.SimpleALU, 100)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 1.3", func() {
			for _, l := range lines {
				fmt.Println(l)
			}
		})
		speedup = base.TotalTime / opt.TotalTime
	}
	b.ReportMetric(speedup, "synts-speedup-x")
}

func BenchmarkFig1_4(b *testing.B) {
	bd := loadBench(b, "fmm")
	b.ResetTimer()
	var maxSlack float64
	for i := 0; i < b.N; i++ {
		s, err := exp.Fig14(bd)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 1.4", func() { s.Render(os.Stdout) })
		for _, row := range s.Y {
			if sl := row[len(row)-1]; sl > maxSlack {
				maxSlack = sl
			}
		}
	}
	b.ReportMetric(maxSlack, "max-slack-%")
}

func BenchmarkFig3_5(b *testing.B) {
	bd := loadBench(b, "radix")
	b.ResetTimer()
	var spread float64
	for i := 0; i < b.N; i++ {
		s, err := exp.Fig35(bd, trace.SimpleALU, 0)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 3.5", func() { s.Render(os.Stdout) })
		row := s.Y[0]
		lo, hi := row[0], row[0]
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo > 0 {
			spread = hi / lo
		} else {
			spread = hi / 1e-4
		}
	}
	b.ReportMetric(spread, "err-heterogeneity-x")
}

func BenchmarkFig3_6(b *testing.B) {
	bd := loadBench(b, "radix")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig36(bd, trace.SimpleALU, 0)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 3.6", func() { t.Render(os.Stdout) })
	}
}

func BenchmarkFig4_7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Fig47(50000)
		emit("Fig 4.7", func() { t.Render(os.Stdout) })
	}
}

func BenchmarkFig5_10(b *testing.B) {
	var maxDist float64
	for i := 0; i < b.N; i++ {
		t, h, err := exp.Fig510("MatrixMult", 1000, benchOpts().Seed)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 5.10", func() { t.Render(os.Stdout) })
		maxDist = h.MaxPairDistance
	}
	b.ReportMetric(maxDist, "lane-histogram-L1")
}

// paretoBench runs one of Figs 6.11–6.16 and reports SynTS' energy
// advantage over per-core TS at the nominal time budget.
func paretoBench(b *testing.B, figure, bench string, stage trace.Stage) {
	bd := loadBench(b, bench)
	if _, err := bd.Profiles(stage); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var adv float64
	for i := 0; i < b.N; i++ {
		pr, err := exp.Pareto(bd, stage)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig "+figure, func() { pr.Series().Render(os.Stdout) })
		syn := pr.BestEnergyAt("SynTS", 1.0)
		pc := pr.BestEnergyAt("Per-core TS", 1.0)
		adv = (1 - syn/pc) * 100
	}
	b.ReportMetric(adv, "energy-adv-vs-percore-%")
}

func BenchmarkFig6_11(b *testing.B) { paretoBench(b, "6.11", "fmm", trace.SimpleALU) }
func BenchmarkFig6_12(b *testing.B) { paretoBench(b, "6.12", "cholesky", trace.SimpleALU) }
func BenchmarkFig6_13(b *testing.B) { paretoBench(b, "6.13", "cholesky", trace.Decode) }
func BenchmarkFig6_14(b *testing.B) { paretoBench(b, "6.14", "raytrace", trace.Decode) }
func BenchmarkFig6_15(b *testing.B) { paretoBench(b, "6.15", "cholesky", trace.ComplexALU) }
func BenchmarkFig6_16(b *testing.B) { paretoBench(b, "6.16", "raytrace", trace.ComplexALU) }

func BenchmarkFig6_17(b *testing.B) {
	bd := loadBench(b, "radix")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := exp.Fig617(bd, trace.SimpleALU, 0)
		if err != nil {
			b.Fatal(err)
		}
		emit("Fig 6.17", func() { s.Render(os.Stdout) })
	}
}

func BenchmarkFig6_18(b *testing.B) {
	var benches []*exp.Bench
	for _, name := range workload.PaperSuite() {
		benches = append(benches, loadBench(b, name))
	}
	// Pre-build profiles outside the timed loop.
	for _, st := range trace.Stages() {
		for _, bd := range benches {
			if _, err := bd.Profiles(st); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	var worstOnline float64
	for i := 0; i < b.N; i++ {
		for _, st := range trace.Stages() {
			rows, err := exp.Fig618Ctx(context.Background(), benches, st)
			if err != nil {
				b.Fatal(err)
			}
			emit(fmt.Sprintf("Fig 6.18 (%s)", st), func() { exp.Fig618Bars(rows, st).Render(os.Stdout) })
			for _, r := range rows {
				if r.SynTSOnline > worstOnline {
					worstOnline = r.SynTSOnline
				}
			}
		}
	}
	b.ReportMetric(worstOnline, "worst-online/offline-EDP")
}

func BenchmarkOverhead(b *testing.B) {
	var power float64
	for i := 0; i < b.N; i++ {
		t, ov, err := exp.OverheadReport()
		if err != nil {
			b.Fatal(err)
		}
		emit("Overhead (§6.3)", func() { t.Render(os.Stdout) })
		power = ov.Power * 100
	}
	b.ReportMetric(power, "power-overhead-%")
}

func BenchmarkAblationAdder(b *testing.B) {
	bd := loadBench(b, "radix")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := exp.AdderAblation(bd)
		if err != nil {
			b.Fatal(err)
		}
		emit("Ablation: adder architecture", func() { t.Render(os.Stdout) })
	}
}

func BenchmarkAblationDelayModel(b *testing.B) {
	bd := loadBench(b, "radix")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := exp.DelayModelAblation(bd, 600)
		if err != nil {
			b.Fatal(err)
		}
		emit("Ablation: delay model", func() { t.Render(os.Stdout) })
	}
}

func BenchmarkAblationGranule(b *testing.B) {
	bd := loadBench(b, "radix")
	if _, err := bd.Profiles(trace.SimpleALU); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := exp.GranuleAblation(bd, trace.SimpleALU, 0)
		if err != nil {
			b.Fatal(err)
		}
		emit("Ablation: sampling granule", func() { t.Render(os.Stdout) })
	}
}

func BenchmarkAblationVariation(b *testing.B) {
	bd := loadBench(b, "radix")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := exp.VariationAblation(bd)
		if err != nil {
			b.Fatal(err)
		}
		emit("Ablation: process variation", func() { t.Render(os.Stdout) })
	}
}

func BenchmarkAblationRecovery(b *testing.B) {
	bd := loadBench(b, "radix")
	if _, err := bd.Profiles(trace.SimpleALU); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := exp.RecoveryAblation(bd, trace.SimpleALU)
		if err != nil {
			b.Fatal(err)
		}
		emit("Ablation: recovery penalty", func() { t.Render(os.Stdout) })
	}
}

func BenchmarkJointStageStudy(b *testing.B) {
	bd := loadBench(b, "radix")
	for _, st := range trace.Stages() {
		if _, err := bd.Profiles(st); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := exp.JointStageStudy(bd, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		emit("Joint multi-stage analysis", func() { t.Render(os.Stdout) })
	}
}

func BenchmarkPredictionStudy(b *testing.B) {
	bd := loadBench(b, "radix")
	if _, err := bd.Profiles(trace.SimpleALU); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := exp.PredictionStudy(bd, trace.SimpleALU)
		if err != nil {
			b.Fatal(err)
		}
		emit("Workload prediction study", func() { t.Render(os.Stdout) })
	}
}

// --- micro-benchmarks of the core primitives ---

func solverInstance() (*core.Config, []core.Thread) {
	cfg := exp.Platform(trace.SimpleALU, benchOpts())
	ths := []core.Thread{
		{N: 50000, CPIBase: 1.2, Err: core.ConstErr(0.9, 0.3)},
		{N: 45000, CPIBase: 1.1, Err: core.ConstErr(0.8, 0.1)},
		{N: 52000, CPIBase: 1.3, Err: core.ConstErr(0.75, 0.05)},
		{N: 48000, CPIBase: 1.2, Err: core.ConstErr(0.7, 0.02)},
	}
	return cfg, ths
}

func BenchmarkSolvePoly(b *testing.B) {
	cfg, ths := solverInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SolvePoly(cfg, ths, 0.05)
	}
}

// BenchmarkSolveMILP measures the exact branch-and-bound on the full
// 4x7x6 platform. It is orders of magnitude slower than BenchmarkSolvePoly
// by design — §4.2.1's motivation for SynTS-Poly is precisely that "the
// run-time of MILP solvers scales poorly with the problem size"; this
// benchmark quantifies the gap (~10^5x here).
func BenchmarkSolveMILP(b *testing.B) {
	cfg, ths := solverInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := milp.SolveSynTS(cfg, ths, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelayTraceSimpleALU(b *testing.B) {
	bd := loadBench(b, "radix")
	iv := bd.Streams[0].Intervals[0]
	sc := trace.NewStageCircuit(trace.SimpleALU)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.DelayTrace(iv)
	}
	b.ReportMetric(float64(len(iv)), "instructions")
}

// The levelized reference on BenchmarkDelayTraceSimpleALU's stream; the
// ratio of the two is the engine speedup the README perf table quotes.
func BenchmarkDelayTraceSimpleALULevelized(b *testing.B) {
	bd := loadBench(b, "radix")
	iv := bd.Streams[0].Intervals[0]
	sc := trace.NewStageCircuit(trace.SimpleALU)
	trace.SetEngine(trace.EngineLevelized)
	defer trace.SetEngine(trace.EngineEvent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.DelayTrace(iv)
	}
	b.ReportMetric(float64(len(iv)), "instructions")
}

func BenchmarkEventDrivenSim(b *testing.B) {
	n := netlist.NewSimpleALU(8)
	sim := timing.NewEventSim(n)
	in := make([]bool, len(n.Inputs))
	sim.Reset(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SetBusUint(in, n.InputBus("a"), uint64(i)*2654435761)
		n.SetBusUint(in, n.InputBus("b"), uint64(i)*40503)
		sim.Step(in)
	}
}

func BenchmarkSamplingEstimator(b *testing.B) {
	bd := loadBench(b, "radix")
	profs, err := bd.Profiles(trace.SimpleALU)
	if err != nil {
		b.Fatal(err)
	}
	ps := make([]*trace.Profile, len(profs))
	for t := range profs {
		ps[t] = profs[t][0]
	}
	cfg := exp.Platform(trace.SimpleALU, bd.Opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		razor.SamplingEstimator(ps, cfg.TSRs, 500, cfg.CPenalty)
	}
}
