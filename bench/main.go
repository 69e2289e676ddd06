// Command bench is the repository benchmark. It builds cmd/synts, drives
// it from outside the way a user would — the batch evaluation as a fresh
// process per run, the solver fleet over HTTP — checks its outputs, and
// prints every metric by name with its unit. The last line of its
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}, with the end-to-end metrics BENCHMARK.json declares, or with
// -trace 1 its per-layer metrics.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload solve-fresh --seed 2016 --seconds 30 --trace 0
//	bash bench/run.sh -o set1.jsonl            # every workload, untraced
//	bash bench/run.sh -compare set1.jsonl set2.jsonl
//
// It needs Linux: it reads /proc for the daemons' CPU time and memory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"synts/internal/service"
)

// env is where a run builds and writes, and the synts binary it drives.
type env struct {
	root   string // repository root
	out    string // build outputs, logs and spans
	logDir string
	synts  string
	log    io.Writer // progress and diagnostics
}

// workloadDef is one workload; service is nil for batch-paper. BENCHMARK.json
// and bench/README.md give the reason for each.
type workloadDef struct {
	name    string
	service *serviceSpec
}

var solveFresh = serviceSpec{daemons: 1, shards: 2, repeat: -1, closedPerSecond: 500}

var workloads = []workloadDef{
	{name: "batch-paper"},
	{name: "solve-fresh", service: &solveFresh},
	{name: "solve-repeat", service: &serviceSpec{daemons: 1, shards: 2, repeat: 0.9, closedPerSecond: 1000}},
	{name: "fleet-routed", service: &serviceSpec{daemons: 2, shards: 1, routed: true, closedPerSecond: 500}},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: batch-paper, solve-fresh, solve-repeat, fleet-routed or all")
	seed := fs.Int64("seed", 2016, "input seed, passed to synts -seed and service.GenStream")
	seconds := fs.Int("seconds", 30, "measured time per run, in seconds")
	traced := fs.Int("trace", 0, "0: untraced end-to-end run; 1: traced run reporting the per-layer metrics")
	out := fs.String("o", "", "append each run's result record, one JSON line, to `file`")
	cmp := fs.Bool("compare", false, "compare two result files: -compare A.jsonl B.jsonl (exits 1 on any worse)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bash bench/run.sh [flags]\n       bash bench/run.sh -compare A.jsonl B.jsonl\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v (run from the repository root)\n", err)
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fs.Usage()
			return 2
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fs.Usage()
		return 2
	}
	runtime.GOMAXPROCS(procs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(stderr, "bench: %v: stopping child processes\n", s)
		shutdown()
		os.Exit(130)
	}()
	defer shutdown()

	e, build, err := setup(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range selected {
		r, err := runWorkload(e, w, *seed, *seconds, *traced == 1)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		r.Metrics.set("build_s", build.Seconds(), "s")
		declared := spec.EndToEnd
		if r.Trace {
			declared = spec.PerLayer
		}
		line, err := report(declared, r.Metrics)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printHuman(stdout, r)
		if *out != "" {
			if err := appendResult(*out, r); err != nil {
				fmt.Fprintf(stderr, "bench: -o: %v\n", err)
				return 1
			}
		}
		b, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Counts.failed() == 0, r.Counts.Attempted, r.Counts.failed(), line})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
		if r.Counts.failed() > 0 {
			code = 1
		}
	}
	return code
}

// setup finds the repository, prepares .bench_build and builds synts. The
// build time is returned on its own: it is not part of setup_s.
func setup(log io.Writer) (*env, time.Duration, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, 0, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "synts")); err != nil {
		return nil, 0, fmt.Errorf("no cmd/synts here: run from the repository root (%w)", err)
	}
	e := &env{root: root, out: filepath.Join(root, ".bench_build"), log: log}
	e.logDir = filepath.Join(e.out, "logs")
	e.synts = filepath.Join(e.out, "synts")
	if err := os.MkdirAll(e.logDir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", e.synts, "./cmd/synts")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("go build ./cmd/synts: %w", err)
	}
	return e, time.Since(t0), nil
}

// runWorkload runs one workload once and returns its record.
func runWorkload(e *env, w workloadDef, seed int64, seconds int, traced bool) (*result, error) {
	r := &result{
		Schema:     resultSchema,
		Workload:   w.name,
		Trace:      traced,
		Commit:     commit(e.root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Seconds:    seconds,
		Metrics:    metrics{},
	}
	fmt.Fprintf(e.log, "bench: %s seed %d, %d s, trace %v\n", w.name, seed, seconds, traced)
	var err error
	switch {
	case traced:
		r.Counts, err = traceRun(e, w, seed, seconds, r.Metrics)
	case w.service == nil:
		r.Counts, err = runBatch(e, seed, seconds, r.Metrics)
	default:
		r.Counts, err = runService(e, *w.service, seed, seconds, r.Metrics)
	}
	return r, err
}

// traceRun is the traced run. It replays the workload's open-loop phase on
// a fresh fleet, tracing every other request, and derives the hop metrics
// from the traced spans; then it runs the in-process layer ledger and one
// `synts -j 1 all` to reconcile against. batch-paper sends no requests, so
// its hop and service rows use solve-fresh's fleet and mix.
func traceRun(e *env, w workloadDef, seed int64, seconds int, m metrics) (counts, error) {
	rec := newRecorder()
	s := solveFresh
	if w.service != nil {
		s = *w.service
	}
	// The first service.New in a process builds the stage netlists, which
	// is what a daemon pays at start-up: time it before anything else in
	// this process builds them.
	var svc *service.Service
	var err error
	newDur := rec.timed(0, "service.New", func() { svc, err = service.New(service.Config{Shards: procs, QueueLen: 64}) })
	if err != nil {
		return counts{}, err
	}
	defer func() {
		svc.Drain()
		svc.Close()
	}()
	m.set("service.new_ms", float64(newDur)/1e6, "ms")

	traced, untraced, c, err := replay(e, s, seed, seconds, rec)
	if err != nil {
		return c, err
	}
	loadgenMetrics(m, untraced)
	layerSum := hopMetrics(rec.snapshot(), m)
	base, tr := latenciesMs(untraced), latenciesMs(traced)
	p50, _ := quantile(base, 0.5)
	tp50, _ := quantile(tr, 0.5)
	m.set("trace.overhead_frac", tp50/p50-1, "ratio")
	// The layers are compared with the mean latency of the same traced
	// requests: between two runs on a shared host, a few multi-ms stalls
	// move a mean more than any layer does.
	m.set("service.residual_frac", 1-layerSum/(mean(tr)*1e3), "ratio")

	cs, err := serialWall(e, seed, m)
	c.add(cs)
	if err != nil {
		return c, err
	}
	fmt.Fprintf(e.log, "bench: batch layer ledger\n")
	calls, err := batchLedger(seed, rec, m)
	if err != nil {
		return c, err
	}
	m.set("batch.residual_frac", 1-calls.Seconds()/m["batch.serial_wall_s"].Value, "ratio")

	fmt.Fprintf(e.log, "bench: service layer ledger\n")
	reqs, bodies, err := s.stream(seed, ledgerRequests)
	if err != nil {
		return c, err
	}
	cl, err := serviceLedger(svc, reqs, bodies, rec, m, e.log)
	c.add(cl)
	if err != nil {
		return c, err
	}
	spans := filepath.Join(e.out, "spans-"+w.name+".jsonl")
	if err := rec.writeJSONL(spans); err != nil {
		return c, err
	}
	fmt.Fprintf(e.log, "bench: wrote %s\n", spans)
	return c, nil
}

// commit is the checked-out commit, or "unknown" outside a git checkout.
func commit(root string) string {
	b, err := exec.Command("git", "--git-dir", filepath.Join(root, ".git"), "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// printHuman prints a run's header and every measured metric.
func printHuman(w io.Writer, r *result) {
	mode := "end to end, untraced"
	if r.Trace {
		mode = "traced, per layer"
	}
	fmt.Fprintf(w, "== %s: seed %d, %d s, %s; GOMAXPROCS %d, NumCPU %d, %s, commit %.12s\n",
		r.Workload, r.Seed, r.Seconds, mode, r.GOMAXPROCS, r.NumCPU, r.GoVersion, r.Commit)
	c := r.Counts
	fmt.Fprintf(w, "   attempted %d = ok %d + shed %d + errors %d + dropped %d + incorrect %d\n",
		c.Attempted, c.OK, c.Shed, c.Errors, c.Dropped, c.Incorrect)
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "   %-34s %14.6g %-6s", n, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		if m.Beyond > 0 {
			fmt.Fprintf(w, " beyond=%d", m.Beyond)
		}
		fmt.Fprintln(w)
	}
}

// runCompare prints the comparison of two result files and exits 1 when
// any (workload, metric) is worse.
func runCompare(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "A = %s (%d runs), B = %s (%d runs)\n", pathA, len(a), pathB, len(b))
	if printRows(stdout, compare(spec, a, b)) {
		return 1
	}
	return 0
}
