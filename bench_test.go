package synts_test

// Micro-benchmarks of the layers under the evaluation: the SynTS-Poly and
// MILP solvers, one interval's delay trace on both timing engines, the
// event-driven gate simulator and the online sampling estimator. The
// tables and figures themselves come from `synts all`; its -stats table
// times each experiment as an exp.run:<experiment> row.

import (
	"sync"
	"testing"

	"synts/internal/core"
	"synts/internal/exp"
	"synts/internal/milp"
	"synts/internal/netlist"
	"synts/internal/razor"
	"synts/internal/telemetry"
	"synts/internal/timing"
	"synts/internal/trace"
)

// radix is the size-1 radix benchmark the trace and sampling benchmarks
// share; the first one to ask runs the kernel.
var radix = sync.OnceValues(func() (*exp.Bench, error) {
	o := exp.DefaultOptions()
	o.Size = 1
	return exp.LoadBench("radix", o)
})

func loadRadix(b *testing.B) *exp.Bench {
	b.Helper()
	bd, err := radix()
	if err != nil {
		b.Fatal(err)
	}
	return bd
}

func solverInstance() (*core.Config, []core.Thread) {
	cfg := exp.Platform(trace.SimpleALU, exp.DefaultOptions())
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
	iv := loadRadix(b).Streams[0].Intervals[0]
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
	iv := loadRadix(b).Streams[0].Intervals[0]
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
	bd := loadRadix(b)
	profs, err := bd.Profiles(trace.SimpleALU)
	if err != nil {
		b.Fatal(err)
	}
	ps := make([]*trace.Profile, len(profs))
	budgets := make([]int, len(profs))
	for t := range profs {
		ps[t] = profs[t][0]
		budgets[t] = 500
	}
	cfg := exp.Platform(trace.SimpleALU, bd.Opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		razor.SamplingEstimator(telemetry.Scope{}, ps, cfg.TSRs, budgets, cfg.CPenalty, razor.SamplingGranule)
	}
}
