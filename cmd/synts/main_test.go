package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtrace "runtime/trace"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"synts/internal/exp"
	"synts/internal/faults"
	"synts/internal/obs"
	"synts/internal/pool"
)

func TestExperimentRegistry(t *testing.T) {
	want := []string{
		"table5.1", "fig1.2", "fig1.3", "fig1.4", "fig3.5", "fig3.6", "fig4.7",
		"fig5.10", "fig6.11", "fig6.12", "fig6.13", "fig6.14", "fig6.15",
		"fig6.16", "fig6.17", "fig6.18", "overhead", "ablation", "joint", "prediction",
	}
	if len(experiments) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(experiments), len(want))
	}
	for _, name := range want {
		e := lookup(name)
		if e == nil {
			t.Errorf("lookup(%q) = nil", name)
			continue
		}
		if e.desc == "" {
			t.Errorf("%s: empty description", name)
		}
		if e.run == nil {
			t.Errorf("%s: nil runner", name)
		}
	}
	if lookup("bogus") != nil {
		t.Error("lookup(bogus) must be nil")
	}
}

func TestRunnerCachesBenches(t *testing.T) {
	opts := exp.DefaultOptions()
	opts.Size = 1
	r := &runner{opts: opts, benches: exp.NewBenchCache()}
	a, err := r.bench("ocean")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.bench("ocean")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("runner must cache benchmarks across experiments")
	}
	if _, err := r.bench("nope"); err == nil {
		t.Error("unknown benchmark must error")
	}
}

// Fast experiments run end to end through the CLI plumbing (the rendered
// output is the artefact; here we only assert success).
func TestFastExperimentsRun(t *testing.T) {
	opts := exp.DefaultOptions()
	opts.Size = 1
	r := &runner{opts: opts, benches: exp.NewBenchCache()}
	for _, name := range []string{"table5.1", "fig4.7", "overhead"} {
		e := lookup(name)
		if e == nil {
			t.Fatalf("missing %s", name)
		}
		if err := e.run(r, io.Discard); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunAllUnknownExperiment(t *testing.T) {
	err := runAllCtx(context.Background(), []string{"table5.1", "nope"}, exp.DefaultOptions(), 1, io.Discard)
	if err == nil {
		t.Fatal("unknown experiment must error")
	}
	if exitCode(err) != 2 {
		t.Errorf("unknown experiment exit code = %d, want 2 (usage error)", exitCode(err))
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %q does not name the experiment", err)
	}
}

// A thread count below 1 is a usage error caught before any kernel runs
// (it used to fail the experiment with a recovered task panic), and
// explain refuses it too.
func TestRejectsThreadsBelowOne(t *testing.T) {
	for _, threads := range []int{0, -1} {
		opts := exp.DefaultOptions()
		opts.Size, opts.Threads = 1, threads
		var stdout bytes.Buffer
		err := runAllCtx(context.Background(), []string{"fig3.6"}, opts, 1, &stdout)
		if err == nil || exitCode(err) != 2 {
			t.Fatalf("-threads %d: error %v, exit %d, want a usage error (exit 2)", threads, err, exitCode(err))
		}
		if want := fmt.Sprintf("-threads %d", threads); !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("-threads %d: error %q, want one line naming the flag", threads, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("-threads %d: stdout %q, want nothing", threads, stdout.String())
		}
		err = runExplainCmd([]string{"-size", "1", "-threads", fmt.Sprint(threads), "radix"}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-threads") {
			t.Errorf("explain -threads %d: error %v, want one naming the flag", threads, err)
		}
	}
}

// A -size below 1 is a usage error in the batch and in explain: one line
// naming the flag, exit 2, nothing on stdout and no kernel run. At size 0
// raytrace panicked drawing from an empty range, and fmm, ocean and
// raytrace emitted no instructions.
func TestRejectsNegativeSize(t *testing.T) {
	for _, size := range []int{-1, 0} {
		arg := fmt.Sprintf("-size %d", size)
		opts := exp.DefaultOptions()
		opts.Size = size
		var stdout bytes.Buffer
		err := runAllCtx(context.Background(), []string{"fig3.6", "fig6.14"}, opts, 1, &stdout)
		if err == nil || exitCode(err) != 2 {
			t.Fatalf("%s: error %v, exit %d, want a usage error (exit 2)", arg, err, exitCode(err))
		}
		if !strings.Contains(err.Error(), arg) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error %q, want one line naming the flag", arg, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: stdout %q, want nothing", arg, stdout.String())
		}
		err = runExplainCmd([]string{"-size", strconv.Itoa(size), "raytrace"}, &stdout, io.Discard)
		if err == nil || exitCode(err) != 2 || !strings.Contains(err.Error(), arg) {
			t.Errorf("explain %s: error %v, exit %d, want a usage error naming the flag", arg, err, exitCode(err))
		}
		if stdout.Len() != 0 {
			t.Errorf("explain %s: stdout %q, want nothing", arg, stdout.String())
		}
	}
}

// The CLI determinism golden test: the rendered byte stream must be
// identical whether the experiments run strictly in order (-j 1) or
// concurrently (-j 4). Proves the pipeline's parallelism never leaks into
// the artefacts.
func TestRunAllOutputIdenticalAcrossJobCounts(t *testing.T) {
	opts := exp.DefaultOptions()
	opts.Size = 1
	names := []string{"table5.1", "fig3.6"}
	run := func(jobs int) string {
		var out bytes.Buffer
		if err := runAllCtx(context.Background(), names, opts, jobs, &out); err != nil {
			t.Fatalf("-j %d: %v", jobs, err)
		}
		return out.String()
	}
	serial := run(1)
	parallel := run(4)
	if serial != parallel {
		t.Errorf("-j 1 and -j 4 output differ:\n--- j1 ---\n%s\n--- j4 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "Table 5.1") || !strings.Contains(serial, "Fig 3.6") {
		t.Error("output missing expected artefacts")
	}
}

// The instrumentation determinism golden: stdout with -stats semantics and
// the execution tracer on at -j 4 must be byte-identical to the plain -j 1
// run. Stats go to stderr and files only, so enabling them cannot perturb
// the artefact stream.
func TestRunAllOutputIdenticalWithStats(t *testing.T) {
	opts := exp.DefaultOptions()
	opts.Size = 1
	names := []string{"table5.1", "fig3.6"}

	var plain bytes.Buffer
	if err := runAllCtx(context.Background(), names, opts, 1, &plain); err != nil {
		t.Fatalf("plain run: %v", err)
	}

	obs.Enable()
	defer obs.Disable()
	stop, err := startRecorder(filepath.Join(t.TempDir(), "trace.out"), rtrace.Start, rtrace.Stop)
	if err != nil {
		t.Fatal(err)
	}
	var instrumented, stderr bytes.Buffer
	err = runAllCtx(context.Background(), names, opts, 4, &instrumented)
	stop()
	if err != nil {
		t.Fatalf("instrumented run: %v", err)
	}
	if err := writeObsArtifacts(true, "", &stderr); err != nil {
		t.Fatal(err)
	}
	if plain.String() != instrumented.String() {
		t.Error("stdout with -stats and -trace-out at -j 4 differs from plain -j 1 run")
	}
	if !strings.Contains(stderr.String(), "run stats") || !strings.Contains(stderr.String(), "exp.run:table5.1") {
		t.Errorf("stats table missing expected content:\n%s", stderr.String())
	}
}

// The -stats-json schema the issue promises: pool queue-wait p95, the
// BenchCache hit ratio, and the per-stage region histograms must all be
// present in the emitted snapshot, and -trace-out must write a Go
// execution trace that names the regions.
func TestStatsJSONAndTraceOutSchemas(t *testing.T) {
	opts := exp.DefaultOptions()
	opts.Size = 1
	obs.Enable()
	defer obs.Disable()
	dir := t.TempDir()
	statsPath := filepath.Join(dir, "stats.json")
	tracePath := filepath.Join(dir, "trace.out")
	stop, err := startRecorder(tracePath, rtrace.Start, rtrace.Stop)
	if err != nil {
		t.Fatal(err)
	}
	// fig3.5 twice at -j 1: the second, strictly-later lookup hits the
	// bench and profile caches (at higher -j it would be a singleflight
	// wait), making the hit ratio deterministically positive.
	err = runAllCtx(context.Background(), []string{"fig3.5", "fig3.5"}, opts, 1, io.Discard)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeObsArtifacts(false, statsPath, io.Discard); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("stats-json is not a snapshot: %v", err)
	}
	if bytes.Contains(raw, []byte(`"spans"`)) {
		t.Error("stats-json has a spans key; region timings are histograms")
	}
	if snap.Meta == nil {
		t.Fatal("stats-json is missing the self-describing meta block")
	}
	if snap.Meta.GoVersion == "" || snap.Meta.GOOS == "" || snap.Meta.NumCPU < 1 {
		t.Errorf("meta block incomplete: %+v", snap.Meta)
	}
	if snap.Meta.Engine != *engine {
		t.Errorf("meta engine = %q, want flag value %q", snap.Meta.Engine, *engine)
	}
	if snap.Meta.GoMaxProcs != snap.GoMaxProcs {
		t.Errorf("meta gomaxprocs %d != snapshot %d", snap.Meta.GoMaxProcs, snap.GoMaxProcs)
	}
	qw, ok := snap.Histograms["pool.queue_wait_ns"]
	if !ok || qw.Count == 0 {
		t.Fatalf("missing pool queue-wait histogram: %+v", snap.Histograms)
	}
	if qw.P95 < qw.P50 || qw.P99 < qw.P95 {
		t.Errorf("quantiles not monotone: %+v", qw)
	}
	ratio, ok := snap.Derived["exp.benchcache.hit_ratio"]
	if !ok {
		t.Fatal("missing derived exp.benchcache.hit_ratio")
	}
	if ratio <= 0 || ratio > 1 {
		t.Errorf("hit ratio = %v, want in (0,1] after a repeated experiment", ratio)
	}
	if h := snap.Histograms["trace.build_profiles:SimpleALU"]; h.Count != 1 || h.Sum <= 0 {
		t.Errorf("per-stage build region histogram = %+v, want exactly one SimpleALU build", h)
	}

	rawTrace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(rawTrace, []byte("go 1.")) {
		t.Errorf("trace-out does not start with the execution-trace header: %q", rawTrace[:min(len(rawTrace), 16)])
	}
	if !bytes.Contains(rawTrace, []byte("trace.build_profiles:SimpleALU")) {
		t.Error("execution trace names no trace.build_profiles:SimpleALU region")
	}
}

// lockedBuffer is a bytes.Buffer safe to write and read concurrently.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// At -j 1 each experiment's bytes reach stdout before the next experiment
// starts, even on one P: the goroutine that finishes an experiment writes
// it before its pool slot frees up for the next one.
func TestRunAllWritesEachOutputBeforeTheNextStarts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	saved := experiments
	defer func() { experiments = saved }()
	var out lockedBuffer
	var names []string
	want := ""
	for i := range 4 {
		name := fmt.Sprintf("step%d", i)
		before := want // what stdout must hold when this experiment starts
		experiments = append(experiments, experiment{name, "ordering probe", func(_ *runner, w io.Writer) error {
			if got := out.String(); got != before {
				return fmt.Errorf("started with stdout %q, want %q", got, before)
			}
			fmt.Fprintln(w, name)
			return nil
		}})
		names = append(names, name)
		want += name + "\n\n"
	}
	opts := exp.DefaultOptions()
	opts.Size = 1
	for run := range 20 {
		out = lockedBuffer{}
		if err := runAllCtx(context.Background(), names, opts, 1, &out); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if got := out.String(); got != want {
			t.Fatalf("run %d: stdout %q, want %q", run, got, want)
		}
	}
}

// A cancelled context must surface as an error on the unstarted
// experiments — not hang the request-order flush loop.
func TestRunAllCtxCancelledNoDeadlock(t *testing.T) {
	opts := exp.DefaultOptions()
	opts.Size = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := runAllCtx(ctx, []string{"table5.1", "fig4.7"}, opts, 1, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A run cancelled from inside one experiment keeps two promises: stdout
// holds whole experiments only, as a prefix of the uninterrupted output,
// and the error names the first experiment missing from it. The
// cancelling probe either finishes anyway or fails with ctx's error. At
// -j > 1 every probe may have started before the cancel, and then a run
// whose probes all finish succeeds.
func TestRunAllCancelledMidRunKeepsWholeExperiments(t *testing.T) {
	saved := experiments
	defer func() { experiments = saved }()
	const cancelAt = 2
	var (
		cancel       context.CancelFunc
		failOnCancel bool
		names        []string
		prefixes     = []string{""} // prefixes[k]: stdout of the first k probes
	)
	for i := range 6 {
		name := fmt.Sprintf("probe%d", i)
		experiments = append(experiments, experiment{name, "interrupt probe", func(r *runner, w io.Writer) error {
			fmt.Fprintln(w, name)
			if i == cancelAt {
				cancel()
				if failOnCancel {
					return r.context().Err()
				}
			}
			return nil
		}})
		names = append(names, name)
		prefixes = append(prefixes, prefixes[i]+name+"\n\n")
	}
	opts := exp.DefaultOptions()
	opts.Size = 1

	cancel = func() {}
	var out bytes.Buffer
	if err := runAllCtx(context.Background(), names, opts, 1, &out); err != nil || out.String() != prefixes[len(names)] {
		t.Fatalf("uninterrupted run: err %v, stdout %q, want %q", err, out.String(), prefixes[len(names)])
	}
	for _, fail := range []bool{false, true} {
		for _, jobs := range []int{1, 2, 4} {
			var ctx context.Context
			ctx, cancel = context.WithCancel(context.Background())
			failOnCancel = fail
			out.Reset()
			err := runAllCtx(ctx, names, opts, jobs, &out)
			cancel()
			k := slices.Index(prefixes, out.String())
			if k < 0 {
				t.Fatalf("fail=%v -j %d: stdout %q is not a whole-experiment prefix of the uninterrupted output", fail, jobs, out.String())
			}
			switch {
			case err == nil && k != len(names):
				t.Errorf("fail=%v -j %d: nil error with %d of %d experiments on stdout", fail, jobs, k, len(names))
			case err != nil && (!errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), names[k]+": ")):
				t.Errorf("fail=%v -j %d: error %v, want context.Canceled naming %s, the first experiment missing from stdout", fail, jobs, err, names[k])
			case fail && k != cancelAt:
				t.Errorf("fail=%v -j %d: %d experiments on stdout, want the %d before the failed one", fail, jobs, k, cancelAt)
			case !fail && k <= cancelAt:
				t.Errorf("fail=%v -j %d: %d experiments on stdout, want the cancelling one among them", fail, jobs, k)
			}
		}
	}
}

// Each command accepts exactly the chaos classes whose hooks it reaches:
// the batch the sampling, replay and task hooks, a daemon the task hook
// and the request slowdown. Any other class is refused with an error that
// names the accepted set, and each -chaos help lists exactly that set.
func TestChaosClassesPerCommand(t *testing.T) {
	defer faults.Disable()
	defer obs.Disable()
	cases := []struct {
		class        string
		batch, serve bool
	}{
		{faults.SampleNoise, true, false},
		{faults.SampleDrop, true, false},
		{faults.SampleNaN, true, false},
		{faults.ReplayPerturb, true, false},
		{faults.TaskPanic, true, true},
		{faults.ReqSlow, false, true},
		{"bogus", false, false},
	}
	var batchSet, serveSet []string
	for _, tc := range cases {
		if tc.batch {
			batchSet = append(batchSet, tc.class)
		}
		if tc.serve {
			serveSet = append(serveSet, tc.class)
		}
	}
	var serveHelp bytes.Buffer
	runServeCmd([]string{"-h"}, nil, &serveHelp)
	for _, c := range []struct {
		cmd, help string
		set       []string
	}{
		{"synts", flag.Lookup("chaos").Usage, batchSet},
		{"synts serve", serveHelp.String(), serveSet},
	} {
		if want := "(classes: " + strings.Join(c.set, ", ") + ")"; !strings.Contains(c.help, want) {
			t.Errorf("%s -chaos help does not list exactly %s:\n%s", c.cmd, want, c.help)
		}
	}
	for _, tc := range cases {
		batchErr := faults.Enable(tc.class, 1, batchChaos)
		var stderr bytes.Buffer
		serveErr := runServeCmd([]string{"-addr", "127.0.0.1:0", "-shards", "1", "-chaos", tc.class}, interrupted(), &stderr)
		for _, c := range []struct {
			cmd    string
			err    error
			accept bool
			set    []string
		}{
			{"synts", batchErr, tc.batch, batchSet},
			{"synts serve", serveErr, tc.serve, serveSet},
		} {
			if (c.err == nil) != c.accept {
				t.Errorf("%s -chaos %s: err %v, want accepted=%v", c.cmd, tc.class, c.err, c.accept)
			}
			if c.err != nil && !strings.Contains(c.err.Error(), "want one of "+strings.Join(c.set, ", ")+")") {
				t.Errorf("%s -chaos %s: error %q does not name the accepted set", c.cmd, tc.class, c.err)
			}
		}
	}
}

// serve checks -chaos before -events-out creates its file, so a refused
// spec leaves an existing ledger at that path with its bytes; and once
// the spec is accepted, a start-up step that fails switches the injector
// off again and stops the solver workers it started.
func TestServeRefusedChaosKeepsLedgerFile(t *testing.T) {
	defer faults.Disable()
	defer obs.Disable()
	path := filepath.Join(t.TempDir(), "led.jsonl")
	if err := os.WriteFile(path, []byte("keep\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runServeCmd([]string{"-addr", "127.0.0.1:0", "-events-out", path, "-chaos", "typo"}, interrupted(), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-chaos") {
		t.Fatalf("serve -chaos typo: err = %v, want a -chaos error", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "keep\n" {
		t.Fatalf("after a refused -chaos the ledger file reads %q (err %v), want its old bytes", b, err)
	}
	const shards = 32
	before := runtime.NumGoroutine()
	if err := runServeCmd([]string{"-addr", "127.0.0.1:-1", "-shards", strconv.Itoa(shards), "-chaos", faults.ReqSlow}, interrupted(), io.Discard); err == nil {
		t.Fatal("serve started on port -1")
	}
	if faults.Enabled() {
		t.Fatal("a failed serve start-up left the fault injector on")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() >= before+shards; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("a failed serve start-up left its %d solver workers running", shards)
		}
	}
}

// An injected panic that exhausts its retry budget must surface as a
// *pool.PanicError carrying a stack, with the experiment named — the
// "stack trace instead of a hang" acceptance criterion at the CLI layer.
func TestRunAllInjectedPanicSurfaces(t *testing.T) {
	if err := faults.Enable("task-panic=1", 7, batchChaos); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()
	opts := exp.DefaultOptions()
	opts.Size = 1
	err := runAllCtx(context.Background(), []string{"table5.1"}, opts, 1, io.Discard)
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *pool.PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
	if !strings.Contains(err.Error(), "table5.1") {
		t.Errorf("error %q does not name the experiment", err)
	}
}
