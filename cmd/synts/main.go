// Command synts regenerates every table and figure of the thesis'
// evaluation from the simulation substrates in this repository.
//
// Usage:
//
//	synts [flags] <experiment> [experiment ...]
//	synts [flags] all
//
// Experiments: table5.1, fig1.2, fig1.4, fig3.5, fig3.6, fig4.7, fig5.10,
// fig6.11, fig6.12, fig6.13, fig6.14, fig6.15, fig6.16, fig6.17, fig6.18,
// overhead.
//
// Experiments run concurrently on -j workers (default: NumCPU; -j 1 runs
// them strictly in order). Each experiment renders into its own buffer and
// the buffers are flushed in the requested order, so the output is
// byte-identical at every -j value.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"sync"
	"syscall"

	"synts/internal/exp"
	"synts/internal/faults"
	"synts/internal/obs"
	"synts/internal/pool"
	"synts/internal/report"
	"synts/internal/simprof"
	"synts/internal/trace"
	"synts/internal/workload"
)

var (
	size    = flag.Int("size", 2, "workload size knob (larger = longer traces)")
	seed    = flag.Int64("seed", 2016, "workload data seed")
	threads = flag.Int("threads", 4, "cores/threads (the thesis models 4)")
	maxIv   = flag.Int("intervals", 3, "barrier intervals analysed per benchmark")
	jobs    = flag.Int("j", runtime.NumCPU(), "experiments run concurrently (1 = serial; output is identical at any -j)")
	engine  = flag.String("engine", "event", "timing engine: event (bit-parallel + event-driven) or levelized (golden reference; output is identical either way)")

	stats      = flag.Bool("stats", false, "print the end-of-run metrics table to stderr")
	statsJSON  = flag.String("stats-json", "", "write the metrics snapshot as JSON to `file`")
	traceOut   = flag.String("trace-out", "", "write a Go execution trace of the run (go tool trace) to `file`")
	eventsOut  = flag.String("events-out", "", "write the simulation decision ledger (synts-events/v1 JSONL) to `file`")
	simprofOut = flag.String("simprof-out", "", "write the simulation-domain pprof profile to `file` (.gz) and folded stacks to `file`.folded")
	cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to `file`")
	memprofile = flag.String("memprofile", "", "write a pprof heap profile to `file`")

	chaos     = flag.String("chaos", "off", "deterministic fault injection `spec`: class[=rate],... (classes: "+strings.Join(batchChaos, ", ")+")")
	chaosSeed = flag.Int64("chaos-seed", 1, "seed for the fault injector's decisions")
)

// batchChaos are the fault classes whose hooks a batch run reaches: the
// online sampling estimates, the Razor replays and the worker pool.
var batchChaos = []string{faults.SampleNoise, faults.SampleDrop, faults.SampleNaN, faults.ReplayPerturb, faults.TaskPanic}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: synts [flags] <experiment>...\n       synts serve [-addr HOST:PORT]\n       synts route -backends URL,URL,... [-addr HOST:PORT]\n       synts loadgen [-url URL] [-rps N] [-duration D] [-o FILE]\n       synts explain [-events FILE] <benchmark>\n       synts trace [-dir DIR] [artifact.jsonl ...] [-merged FILE]\n\nexperiments:\n")
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.name, e.desc)
		}
		fmt.Fprintf(os.Stderr, "  %-10s run everything\n  %-10s serve the solver (/v1/solve), /metrics, expvar and pprof over HTTP\n  %-10s front several serve daemons with a consistent-hash failover router\n  %-10s drive a live serve instance with a seeded open-loop request stream\n  %-10s aggregate the decision ledger into the paper-facing tables\n  %-10s stitch per-process trace artifacts and attribute tail latency\n\nflags:\n", "all", "serve", "route", "loadgen", "explain", "trace")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	eng, err := trace.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "synts: %v\n", err)
		os.Exit(2)
	}
	trace.SetEngine(eng)
	switch flag.Arg(0) {
	case "serve", "route":
		// A daemon's first SIGINT/SIGTERM drains it; a second abandons the
		// drain (serveUntilStopped).
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		var err error
		if flag.Arg(0) == "serve" {
			err = runServeCmd(flag.Args()[1:], stop, os.Stderr)
		} else {
			err = runRouteCmd(flag.Args()[1:], stop, os.Stdout, os.Stderr)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "synts %s: %v\n", flag.Arg(0), err)
			os.Exit(1)
		}
		return
	case "loadgen":
		if err := runLoadgenCmd(flag.Args()[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "synts loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	case "explain":
		if err := runExplainCmd(flag.Args()[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "synts explain: %v\n", err)
			os.Exit(exitCode(err))
		}
		return
	case "trace":
		if err := runTraceCmd(flag.Args()[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "synts trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	opts := exp.DefaultOptions()
	opts.Size = *size
	opts.Seed = *seed
	opts.Threads = *threads
	opts.MaxIntervals = *maxIv

	names := flag.Args()
	if len(names) == 1 && names[0] == "all" {
		names = names[:0]
		for _, e := range experiments {
			names = append(names, e.name)
		}
	}
	if obsRequested(*stats, *statsJSON, *traceOut) {
		obs.Enable()
	}
	finishEvents, err := startEventsLedger(*eventsOut, "synts", os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "synts: %v\n", err)
		os.Exit(1)
	}
	if *simprofOut != "" {
		simprof.Enable()
	}
	if err := faults.Enable(*chaos, *chaosSeed, batchChaos); err != nil {
		fmt.Fprintf(os.Stderr, "synts: -chaos: %v\n", err)
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the batch pipeline: in-flight experiments
	// finish or unwind, queued ones are dropped, and stdout keeps the
	// experiments committed before the first dropped one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stopCPU, err := startRecorder(*cpuprofile, pprof.StartCPUProfile, pprof.StopCPUProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "synts: %v\n", err)
		os.Exit(1)
	}
	stopTrace, err := startRecorder(*traceOut, rtrace.Start, rtrace.Stop)
	if err != nil {
		fmt.Fprintf(os.Stderr, "synts: %v\n", err)
		os.Exit(1)
	}
	runErr := runAllCtx(ctx, names, opts, *jobs, os.Stdout)
	stopTrace()
	stopCPU()
	if err := writeObsArtifacts(*stats, *statsJSON, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "synts: %v\n", err)
		os.Exit(1)
	}
	if err := finishEvents(); err != nil {
		fmt.Fprintf(os.Stderr, "synts: %v\n", err)
		os.Exit(1)
	}
	if *simprofOut != "" {
		if err := writeSimprofArtifacts(*simprofOut); err != nil {
			fmt.Fprintf(os.Stderr, "synts: %v\n", err)
			os.Exit(1)
		}
	}
	if err := writeHeapProfile(*memprofile); err != nil {
		fmt.Fprintf(os.Stderr, "synts: %v\n", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "synts: %v\n", runErr)
		os.Exit(exitCode(runErr))
	}
}

// usageError distinguishes a usage error (exit 2: an unknown experiment
// or a thread count or size no kernel can run with) from an experiment
// failure (exit 1).
type usageError string

func (e usageError) Error() string { return string(e) }

func exitCode(err error) int {
	if _, ok := err.(usageError); ok {
		return 2
	}
	return 1
}

// checkKernelFlags rejects a -threads value below 1 or a -size below 1,
// which would reach the kernels and panic there (at size 0 some kernels
// emit no instructions and raytrace draws from an empty range).
func checkKernelFlags(threads, size int) error {
	if threads < 1 {
		return usageError(fmt.Sprintf("-threads %d: need at least 1 thread", threads))
	}
	if size < 1 {
		return usageError(fmt.Sprintf("-size %d: need a size of at least 1", size))
	}
	return nil
}

// runAllCtx executes the named experiments on a bounded worker pool of
// the given size and writes their rendered artefacts to stdout in the
// requested order. Every experiment renders into a private buffer, so
// tables never interleave and the byte stream does not depend on the job
// count. The first error (in request order) is returned after all started
// work settles. Once ctx is cancelled, experiments not yet running are
// dropped (and reported with ctx's error) while in-flight ones finish, so
// stdout holds whole experiments only, up to the first dropped or failed
// one, which the returned error names.
//
// Output is committed in request order by whichever goroutine finishes an
// experiment: under one mutex it writes every finished experiment from
// the first unwritten one on, so an experiment's bytes reach stdout before
// its pool slot is released.
func runAllCtx(ctx context.Context, names []string, opts exp.Options, jobs int, stdout io.Writer) error {
	if err := checkKernelFlags(opts.Threads, opts.Size); err != nil {
		return err
	}
	exps := make([]*experiment, len(names))
	for i, name := range names {
		if exps[i] = lookup(name); exps[i] == nil {
			return usageError(fmt.Sprintf("unknown experiment %q", name))
		}
	}
	r := &runner{ctx: ctx, opts: opts, benches: exp.NewBenchCache()}
	type result struct {
		buf  bytes.Buffer
		err  error
		done bool // finished or accounted for; set under mu
	}
	results := make([]result, len(exps))
	var (
		mu       sync.Mutex
		next     int // first experiment not yet committed
		firstErr error
	)
	// commit marks experiment i finished and writes every finished
	// experiment from next on, stopping at the first unfinished one.
	commit := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		results[i].done = true
		for ; next < len(exps) && results[next].done; next++ {
			if firstErr != nil {
				continue // print nothing after the first error
			}
			res := &results[next]
			if res.err != nil {
				firstErr = fmt.Errorf("%s: %w", names[next], res.err)
				continue
			}
			if _, err := io.Copy(stdout, &res.buf); err != nil {
				firstErr = err
				continue
			}
			fmt.Fprintln(stdout)
		}
	}
	g := pool.New(jobs)
	for i, e := range exps {
		res := &results[i]
		g.GoCtx(ctx, func() error {
			rg := obs.StartRegion("exp.run:", e.name)
			res.err = e.run(r, &res.buf)
			rg.End()
			commit(i)
			return nil // errors surface in request order
		})
	}
	// Settle the pipeline, then account for every task that never
	// committed: dropped after cancellation or a first-error stop, or
	// unwound by a panic before reaching its commit.
	werr := g.Wait()
	for i := range results {
		if results[i].done {
			continue
		}
		switch {
		case werr != nil:
			results[i].err = werr
		case ctx.Err() != nil:
			results[i].err = ctx.Err()
		default:
			results[i].err = errors.New("pool: task dropped")
		}
		commit(i)
	}
	return firstErr
}

// runner resolves benchmark names to loaded benchmarks. The BenchCache
// singleflights concurrent loads, so experiments sharing a kernel run it
// once even at -j > 1. ctx (nil = Background) aborts kernel runs and
// profile builds when the batch run is cancelled.
type runner struct {
	ctx     context.Context
	opts    exp.Options
	benches *exp.BenchCache
}

func (r *runner) context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

func (r *runner) bench(name string) (*exp.Bench, error) {
	return r.benches.LoadCtx(r.context(), name, r.opts)
}

type experiment struct {
	name string
	desc string
	run  func(*runner, io.Writer) error
}

func lookup(name string) *experiment {
	for i := range experiments {
		if experiments[i].name == name {
			return &experiments[i]
		}
	}
	return nil
}

// pareto runs one of the Figs 6.11-6.16.
func pareto(r *runner, w io.Writer, figure, bench string, stage trace.Stage) error {
	b, err := r.bench(bench)
	if err != nil {
		return err
	}
	pr, err := exp.ParetoCtx(r.context(), b, stage)
	if err != nil {
		return err
	}
	s := pr.Series()
	s.Title = fmt.Sprintf("Fig %s: %s", figure, s.Title)
	s.Render(w)
	if adv, budget, ok := pr.EnergyAdvantageVsPerCore(); ok {
		fmt.Fprintf(w, "  at matched time budget %.3f: SynTS energy %.1f%% below Per-core TS\n",
			budget, adv*100)
	} else {
		fmt.Fprintln(w, "  curves do not converge within the nominal budget (cf. the thesis' ComplexALU remark)")
	}
	return nil
}

var experiments = []experiment{
	{"table5.1", "voltage vs nominal clock period (paper table + ring-oscillator model)", func(r *runner, w io.Writer) error {
		exp.Table51().Render(w)
		return nil
	}},
	{"fig1.2", "timing speculation vs error probability trade-off (radix T0)", func(r *runner, w io.Writer) error {
		b, err := r.bench("radix")
		if err != nil {
			return err
		}
		s, err := exp.Fig12(b)
		if err != nil {
			return err
		}
		s.Render(w)
		return nil
	}},
	{"fig1.3", "multi-threaded execution snapshot: busy/wait timelines, nominal vs SynTS (fmm)", func(r *runner, w io.Writer) error {
		b, err := r.bench("fmm")
		if err != nil {
			return err
		}
		lines, _, _, err := exp.Fig13(b, trace.SimpleALU, 100)
		if err != nil {
			return err
		}
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
		return nil
	}},
	{"fig1.4", "threads arriving at barriers at different times (fmm)", func(r *runner, w io.Writer) error {
		b, err := r.bench("fmm")
		if err != nil {
			return err
		}
		s, err := exp.Fig14(b)
		if err != nil {
			return err
		}
		s.Render(w)
		return nil
	}},
	{"fig3.5", "per-thread error probability vs clock period (radix, SimpleALU)", func(r *runner, w io.Writer) error {
		b, err := r.bench("radix")
		if err != nil {
			return err
		}
		s, err := exp.Fig35(b, trace.SimpleALU, 0)
		if err != nil {
			return err
		}
		s.Render(w)
		return nil
	}},
	{"fig3.6", "motivational example: frequency up-scaling then voltage down-scaling", func(r *runner, w io.Writer) error {
		b, err := r.bench("radix")
		if err != nil {
			return err
		}
		t, err := exp.Fig36(b, trace.SimpleALU, 0)
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	}},
	{"fig4.7", "online sampling-phase schedule", func(r *runner, w io.Writer) error {
		exp.Fig47(50000).Render(w)
		return nil
	}},
	{"fig5.10", "GPGPU VALU Hamming-distance homogeneity study", func(r *runner, w io.Writer) error {
		for _, prog := range []string{"BlackScholes", "MatrixMult", "BinarySearch", "FFT", "EigenValue", "StreamCluster"} {
			t, h, err := exp.Fig510(prog, 16000/6, r.opts.Seed)
			if err != nil {
				return err
			}
			t.Render(w)
			fmt.Fprintf(w, "  homogeneity: max pairwise histogram distance %.3f, err spread %.4f\n\n",
				h.MaxPairDistance, h.ErrSpread)
		}
		return nil
	}},
	{"fig6.11", "Pareto: FMM, SimpleALU", func(r *runner, w io.Writer) error { return pareto(r, w, "6.11", "fmm", trace.SimpleALU) }},
	{"fig6.12", "Pareto: Cholesky, SimpleALU", func(r *runner, w io.Writer) error { return pareto(r, w, "6.12", "cholesky", trace.SimpleALU) }},
	{"fig6.13", "Pareto: Cholesky, Decode", func(r *runner, w io.Writer) error { return pareto(r, w, "6.13", "cholesky", trace.Decode) }},
	{"fig6.14", "Pareto: Raytrace, Decode", func(r *runner, w io.Writer) error { return pareto(r, w, "6.14", "raytrace", trace.Decode) }},
	{"fig6.15", "Pareto: Cholesky, ComplexALU", func(r *runner, w io.Writer) error { return pareto(r, w, "6.15", "cholesky", trace.ComplexALU) }},
	{"fig6.16", "Pareto: Raytrace, ComplexALU", func(r *runner, w io.Writer) error { return pareto(r, w, "6.16", "raytrace", trace.ComplexALU) }},
	{"fig6.17", "actual vs online-estimated error probabilities (radix, fmm)", func(r *runner, w io.Writer) error {
		for _, bench := range []string{"radix", "fmm"} {
			b, err := r.bench(bench)
			if err != nil {
				return err
			}
			s, err := exp.Fig617(b, trace.SimpleALU, 0)
			if err != nil {
				return err
			}
			s.Render(w)
			fmt.Fprintln(w)
		}
		return nil
	}},
	{"fig6.18", "normalized EDP, 7 benchmarks x 3 stages", func(r *runner, w io.Writer) error {
		var benches []*exp.Bench
		for _, name := range workload.PaperSuite() {
			b, err := r.bench(name)
			if err != nil {
				return err
			}
			benches = append(benches, b)
		}
		for _, st := range trace.Stages() {
			rows, err := exp.Fig618Ctx(r.context(), benches, st)
			if err != nil {
				return err
			}
			exp.Fig618Bars(rows, st).Render(w)
			// Headline: best EDP improvement of online SynTS vs per-core TS.
			best, bench := 0.0, ""
			for _, row := range rows {
				if imp := 1 - row.SynTSOnline/row.PerCoreTS; imp > best {
					best, bench = imp, row.Bench
				}
			}
			fmt.Fprintf(w, "  %s: online SynTS EDP up to %.1f%% below Per-core TS (%s)\n\n",
				st, best*100, bench)
		}
		return nil
	}},
	{"overhead", "SynTS-online area/power overhead accounting (§6.3)", func(r *runner, w io.Writer) error {
		t, _, err := exp.OverheadReport()
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	}},
	{"ablation", "design-choice ablations: adder architecture, delay model, sampling granule, process variation", func(r *runner, w io.Writer) error {
		b, err := r.bench("radix")
		if err != nil {
			return err
		}
		render := func(t *report.Table, err error) error {
			if err != nil {
				return err
			}
			t.Render(w)
			fmt.Fprintln(w)
			return nil
		}
		if err := render(exp.AdderAblation(b)); err != nil {
			return err
		}
		if err := render(exp.DelayModelAblation(b, 1500)); err != nil {
			return err
		}
		if err := render(exp.GranuleAblation(b, trace.SimpleALU, 0)); err != nil {
			return err
		}
		if err := render(exp.VariationAblation(b)); err != nil {
			return err
		}
		return render(exp.RecoveryAblation(b, trace.SimpleALU))
	}},
	{"joint", "exact multi-stage (any-stage-flags) error composition vs independence", func(r *runner, w io.Writer) error {
		b, err := r.bench("radix")
		if err != nil {
			return err
		}
		t, err := exp.JointStageStudy(b, 0, 0)
		if err != nil {
			return err
		}
		t.Render(w)
		return nil
	}},
	{"prediction", "online SynTS with predicted (instead of oracle) per-thread instruction counts", func(r *runner, w io.Writer) error {
		for _, bench := range []string{"radix", "fmm"} {
			b, err := r.bench(bench)
			if err != nil {
				return err
			}
			t, err := exp.PredictionStudy(b, trace.SimpleALU)
			if err != nil {
				return err
			}
			t.Render(w)
			fmt.Fprintln(w)
		}
		return nil
	}},
}
