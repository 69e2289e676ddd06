package main

// `synts explain` turns the decision ledger into the paper-facing
// analysis the ROADMAP asks for: per-core error-probability-vs-TSR curves
// (estimate against full-trace truth), the estimator's divergence
// percentiles, the online sampling overhead as a fraction of interval
// cycles (the §6.3 question), and a per-solver decision rollup. It either
// aggregates an existing -events ledger or runs the named benchmark's
// solvers itself with the ledger enabled.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"sort"

	"synts/internal/exp"
	"synts/internal/isa"
	"synts/internal/report"
	"synts/internal/simprof"
	"synts/internal/telemetry"
	"synts/internal/trace"
)

func runExplainCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	eventsIn := fs.String("events", "", "aggregate an existing ledger `file` instead of running the benchmark")
	tracesIn := fs.String("traces", "", "join traced ledger events (shed/fallback/breaker/failover carrying a trace id) against synts-trace/v1 artifacts at `path` (file or -trace-dir directory)")
	size := fs.Int("size", 2, "workload size knob")
	seed := fs.Int64("seed", 2016, "workload data seed")
	threads := fs.Int("threads", 4, "cores/threads")
	maxIv := fs.Int("intervals", 3, "barrier intervals analysed")
	stageName := fs.String("stage", "", "restrict to one pipe stage (Decode, SimpleALU, ComplexALU)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: synts explain [-events FILE] [flags] <benchmark>\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	bench := fs.Arg(0)
	if bench == "" && *eventsIn == "" {
		fs.Usage()
		return fmt.Errorf("need a benchmark name or -events FILE")
	}
	if *tracesIn != "" && *eventsIn == "" {
		return fmt.Errorf("-traces needs -events (the join reads a recorded ledger)")
	}
	if err := checkKernelFlags(*threads, *size); err != nil {
		return err
	}

	var stages []trace.Stage
	if *stageName != "" {
		st, err := exp.StageByName(*stageName)
		if err != nil {
			return err
		}
		stages = []trace.Stage{st}
	} else {
		stages = trace.Stages()
	}

	var events []telemetry.Event
	if *eventsIn != "" {
		var err error
		events, err = telemetry.ReadJSONLFile(*eventsIn)
		if err != nil {
			return err
		}
	} else {
		opts := exp.DefaultOptions()
		opts.Size = *size
		opts.Seed = *seed
		opts.Threads = *threads
		opts.MaxIntervals = *maxIv
		var err error
		events, err = explainLedger(bench, opts, stages)
		if err != nil {
			return err
		}
	}

	if *tracesIn != "" {
		if err := renderTraceJoin(stdout, events, *tracesIn); err != nil {
			return err
		}
	}

	summaries := telemetry.Aggregate(events, bench)
	if *stageName != "" {
		kept := summaries[:0]
		for _, s := range summaries {
			if s.Stage == *stageName {
				kept = append(kept, s)
			}
		}
		summaries = kept
	}
	if len(summaries) == 0 {
		// A fleet ledger (router/daemon resilience events) has no per-stage
		// solver decisions; if the run was a trace join, that is the answer.
		if *tracesIn != "" {
			return nil
		}
		return fmt.Errorf("no ledger events for benchmark %q", bench)
	}
	for _, s := range summaries {
		renderStageExplain(stdout, s)
	}
	// The op x stage replay heatmap comes from the simulation profiler,
	// which only has data on a live run (the JSONL ledger does not carry
	// per-op attribution).
	if *eventsIn == "" {
		renderSimprofHeatmap(stdout, bench)
	}
	// Surface ledger overflow from a live run: the analysis above is
	// incomplete if the cap discarded events (the -events-out finish step
	// reports the same count).
	if *eventsIn == "" {
		if dropped := telemetry.Dropped(); dropped > 0 {
			fmt.Fprintf(stdout, "ledger overflow: %d events dropped past the in-memory cap; the analysis above is partial\n", dropped)
		}
	}
	return nil
}

// renderTraceJoin joins the ledger's traced resilience events
// (shed/fallback/breaker/failover carrying a 16-hex trace id) against a
// run's synts-trace/v1 artifacts: per event kind, how many ledger
// decisions are attributable to a stitched trace — the "why was THIS
// request slow/shed" join the tracing tentpole exists for.
func renderTraceJoin(w io.Writer, events []telemetry.Event, tracesPath string) error {
	spans, files, err := readTraceArtifacts(tracesPath)
	if err != nil {
		return err
	}
	known := make(map[string]bool, len(spans))
	for i := range spans {
		known[spans[i].Trace] = true
	}
	traced, matched := 0, 0
	distinct := map[string]bool{}
	byKind := map[string]int{}
	for i := range events {
		t := events[i].Trace
		if t == "" {
			continue
		}
		traced++
		distinct[t] = true
		byKind[events[i].Kind]++
		if known[t] {
			matched++
		}
	}
	fmt.Fprintf(w, "ledger-trace join (%d artifact(s), %d trace span(s)):\n", files, len(spans))
	if traced == 0 {
		fmt.Fprintln(w, "  no ledger events carry a trace id (untraced run)")
		return nil
	}
	fmt.Fprintf(w, "  %d traced event(s) over %d distinct trace(s); %d matched a recorded trace, %d dangling\n",
		traced, len(distinct), matched, traced-matched)
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-10s %d\n", k, byKind[k])
	}
	fmt.Fprintln(w)
	return nil
}

// explainLedger runs the fig6.18 comparison for the benchmark on each
// stage — the four offline approaches and online SynTS with its sampling
// phase, at the balanced theta — with the ledger recording, and returns
// the recorded events: the ledger a -events-out run of fig6.18 records
// for that benchmark.
func explainLedger(bench string, opts exp.Options, stages []trace.Stage) ([]telemetry.Event, error) {
	b, err := exp.LoadBench(bench, opts)
	if err != nil {
		return nil, err
	}
	telemetry.Enable()
	defer telemetry.Disable()
	// The simulation profiler rides along: its replay-phase attribution
	// feeds the op x stage heatmap rendered after the stage summaries.
	simprof.Enable()
	defer simprof.Disable()
	for _, st := range stages {
		if _, err := exp.Fig618Ctx(context.Background(), []*exp.Bench{b}, st); err != nil {
			return nil, err
		}
	}
	return telemetry.Events(), nil
}

// renderStageExplain writes one (bench, stage) summary as tables plus the
// headline divergence and overhead lines.
func renderStageExplain(w io.Writer, s *telemetry.StageSummary) {
	curve := &report.Table{
		Title:   fmt.Sprintf("Explain %s / %s: error probability vs TSR (sampling estimate vs full trace)", s.Bench, s.Stage),
		Headers: []string{"core", "TSR", "est err", "act err", "|est-act|"},
	}
	for _, cc := range s.Curves {
		for _, p := range cc.Points {
			curve.AddRow(cc.Core, p.TSR, p.EstErr, p.ActErr, math.Abs(p.EstErr-p.ActErr))
		}
	}
	if len(s.Curves) > 0 {
		curve.Render(w)
	} else {
		fmt.Fprintf(w, "Explain %s / %s: no estimate events in the ledger (offline-only run?)\n", s.Bench, s.Stage)
	}

	d := s.Divergence
	fmt.Fprintf(w, "  estimator divergence |est-act| over %d samples: p50=%.4g p95=%.4g p99=%.4g max=%.4g\n",
		d.N, d.P50, d.P95, d.P99, d.Max)
	if s.IntervalCycles > 0 {
		fmt.Fprintf(w, "  online sampling overhead: %.3f%% of interval cycles (%.4g of %.4g); %.3f%% of instructions sampled\n",
			s.Overhead*100, s.SampleCycles, s.IntervalCycles,
			100*s.SampledInstrs/math.Max(s.TotalInstrs, 1))
	} else {
		fmt.Fprintln(w, "  online sampling overhead: n/a (no sampling events)")
	}

	if len(s.Solvers) > 0 {
		solvers := &report.Table{
			Title:   fmt.Sprintf("Explain %s / %s: solver decisions", s.Bench, s.Stage),
			Headers: []string{"solver", "decisions", "mean V", "mean TSR", "exp. replays", "energy", "time"},
		}
		for _, ss := range s.Solvers {
			solvers.AddRow(ss.Solver, ss.Decisions, ss.MeanV, ss.MeanTSR, ss.Replays, ss.Energy, ss.Time)
		}
		solvers.Render(w)
	}
	fmt.Fprintf(w, "  ledger: %d estimates, %d replays, %d barriers\n\n", s.Estimates, s.Replayed, s.Barriers)
}

// renderSimprofHeatmap aggregates the simulation profiler's replay-phase
// attribution for one benchmark into an op x pipe-stage error-rate table:
// each cell is Razor errors per instruction of that op through that stage,
// the per-op view of the paper's sensitized-delay heterogeneity. Rows keep
// the ISA enum order so the table is stable run to run.
func renderSimprofHeatmap(w io.Writer, bench string) {
	stages := trace.Stages()
	colOf := make(map[string]int, len(stages))
	headers := []string{"op"}
	for i, st := range stages {
		colOf[st.String()] = i
		headers = append(headers, st.String())
	}
	type cell struct{ errors, instrs int64 }
	rows := map[string][]cell{}
	for _, e := range simprof.Snapshot() {
		if e.Kernel != bench || e.Phase != simprof.PhaseReplay {
			continue
		}
		ci, ok := colOf[e.Stage]
		if !ok {
			continue
		}
		row := rows[e.Op]
		if row == nil {
			row = make([]cell, len(stages))
			rows[e.Op] = row
		}
		row[ci].errors += e.Errors
		row[ci].instrs += e.Instrs
	}
	if len(rows) == 0 {
		return
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Explain %s: replay error rate per op x pipe stage (errors/instr)", bench),
		Headers: headers,
	}
	order := make([]string, 0, isa.NumOps+2)
	for op := 0; op < isa.NumOps; op++ {
		order = append(order, isa.Op(op).String())
	}
	order = append(order, simprof.OpStall, simprof.OpChaos)
	for _, op := range order {
		row, ok := rows[op]
		if !ok {
			continue
		}
		cells := make([]interface{}, 0, len(stages)+1)
		cells = append(cells, op)
		for _, c := range row {
			if c.instrs > 0 {
				cells = append(cells, fmt.Sprintf("%.4f", float64(c.errors)/float64(c.instrs)))
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	t.Render(w)
	fmt.Fprintln(w)
}
