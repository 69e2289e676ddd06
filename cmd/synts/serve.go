package main

// `synts serve` turns the batch tool into a long-running process: the
// solver itself is exposed as a service (POST /v1/solve, backed by
// internal/service's sharded workers with coalescing, warm starts and
// load shedding) and the instrumentation can be watched live — Prometheus
// text exposition at /metrics (bridged from internal/obs), the stdlib
// expvar JSON at /debug/vars, net/http/pprof at /debug/pprof/, and
// /healthz + /readyz for orchestration. Experiments named on the command
// line run in the background on the usual worker pool, so a long
// evaluation can be scraped while it progresses.
//
// Shutdown drains instead of aborting: the first SIGINT/SIGTERM stops
// admission (new solve requests answer 503 draining, /readyz flips) and
// waits — bounded by -drain-timeout — for in-flight requests and
// background experiments to complete; a second signal or the timeout
// abandons what remains. Either way the -events-out ledger is written.

import (
	"bytes"
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"synts/internal/exp"
	"synts/internal/faults"
	"synts/internal/obs"
	"synts/internal/service"
	"synts/internal/simprof"
	"synts/internal/telemetry"
)

// expvarOnce guards expvar.Publish, which panics on duplicate names
// (tests build the mux repeatedly in one process).
var expvarOnce sync.Once

// newServeMux builds the serve handler tree around an optional solver
// service. Factored out of runServeCmd so tests can drive it through
// httptest without binding a socket.
func newServeMux(svc *service.Service) *http.ServeMux {
	expvarOnce.Do(func() {
		expvar.Publish("synts_telemetry_events", expvar.Func(func() any {
			return telemetry.Len()
		}))
	})
	mux := http.NewServeMux()
	if svc != nil {
		svc.Register(mux)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		defer obs.StartSpan("serve.scrape").End()
		obs.C("serve.scrapes").Add(1)
		obs.G("telemetry.events").Set(float64(telemetry.Len()))
		var buf bytes.Buffer
		if err := obs.Default().WritePrometheus(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/simprof", func(w http.ResponseWriter, req *http.Request) {
		// Simulation-domain profile: the same gzipped profile.proto bytes
		// -simprof-out writes, served live so `go tool pprof
		// http://HOST/debug/simprof` attributes simulated cycles mid-run.
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="simprof.pb.gz"`)
		if err := simprof.WriteProfile(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "synts serve\n\n/v1/solve       POST a synts-solve-req/v1 per-interval solve\n/healthz        process liveness\n/readyz         admission readiness (503 while draining)\n/metrics        Prometheus text exposition\n/debug/vars     expvar JSON\n/debug/pprof/   pprof index\n/debug/simprof  simulation-domain pprof profile (gzipped profile.proto)\n")
	})
	return mux
}

// runServeCmd implements the serve subcommand. It blocks until signalled
// (or until the background experiments finish, with -exit-when-done),
// drains, shuts the listener down and writes the -events-out ledger if
// one was requested.
func runServeCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9187", "listen address for /v1/solve, /metrics, /debug/vars, /debug/pprof/")
	size := fs.Int("size", 2, "workload size knob for background experiments")
	seed := fs.Int64("seed", 2016, "workload data seed")
	threads := fs.Int("threads", 4, "cores/threads")
	maxIv := fs.Int("intervals", 3, "barrier intervals analysed per benchmark")
	jobs := fs.Int("j", runtime.NumCPU(), "background experiments run concurrently")
	shards := fs.Int("shards", runtime.NumCPU(), "solver service worker shards")
	queueLen := fs.Int("queue", 64, "per-shard bounded queue length (full queues shed with 429)")
	tenantCap := fs.Int("max-inflight-per-tenant", 0, "per-tenant in-flight admission cap (429/tenant-cap beyond it; 0 = off)")
	warmDir := fs.String("warm-dir", "", "persist the solve warm-start cache to `dir` (synts-ckpt/v1)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight work before aborting (0 = forever)")
	chaosSpec := fs.String("chaos", "off", "deterministic fault injection `spec`: class[=rate],... (adds req-slow, req-drop to the batch classes)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the fault injector's decisions")
	eventsOut := fs.String("events-out", "", "write the decision ledger (synts-events/v1 JSONL) to `file` on shutdown")
	traceDir := fs.String("trace-dir", "", "record incoming distributed-trace context and write this daemon's synts-trace/v1 artifact into `dir` on shutdown")
	exitWhenDone := fs.Bool("exit-when-done", false, "shut down once the background experiments finish (instead of serving until signalled)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: synts serve [-addr HOST:PORT] [flags] [experiment ...]\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Serving implies instrumentation: the endpoints are the whole point.
	obs.Enable()
	telemetry.Enable()
	simprof.Enable()
	if *eventsOut != "" {
		if err := telemetry.SetSpill(*eventsOut + ".spill"); err != nil {
			return err
		}
	}
	if err := faults.Enable(*chaosSpec, *chaosSeed); err != nil {
		return fmt.Errorf("-chaos: %w", err)
	}

	svc, err := service.New(service.Config{Shards: *shards, QueueLen: *queueLen, WarmDir: *warmDir, TenantCap: *tenantCap})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	finishTrace, err := startTraceArtifact(*traceDir, "serve", traceProcName("serve", ln.Addr().String()), stderr)
	if err != nil {
		ln.Close()
		return err
	}
	srv := &http.Server{Handler: newServeMux(svc)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "synts serve: listening on http://%s (/v1/solve, /metrics, /debug/vars, /debug/pprof/)\n", ln.Addr())

	// Background experiments, if any. Artefacts still go to stdout in
	// request order; metrics update live as the pool works. The cancellable
	// context is the abort path: drain timeout or a second signal.
	names := fs.Args()
	if len(names) == 1 && names[0] == "all" {
		names = names[:0]
		for _, e := range experiments {
			names = append(names, e.name)
		}
	}
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	var runDone chan error // nil (blocks forever) unless background work exists
	if len(names) > 0 {
		runDone = make(chan error, 1)
		opts := exp.DefaultOptions()
		opts.Size = *size
		opts.Seed = *seed
		opts.Threads = *threads
		opts.MaxIntervals = *maxIv
		go func() { runDone <- runAllCtx(runCtx, names, opts, *jobs, false, stdout, stderr, nil, false) }()
	} else if *exitWhenDone {
		runDone = make(chan error, 1)
		runDone <- nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	var runErr error
	clean := false
loop:
	for {
		select {
		case s := <-sig:
			fmt.Fprintf(stderr, "synts serve: %v, draining (signal again to abort)\n", s)
			runErr, clean = drainServe(svc, runDone, sig, *drainTimeout, cancelRun, stderr)
			break loop
		case err := <-serveErr:
			return fmt.Errorf("http server: %w", err)
		case runErr = <-runDone:
			if runErr != nil {
				fmt.Fprintf(stderr, "synts serve: background run failed: %v\n", runErr)
			} else {
				fmt.Fprintf(stderr, "synts serve: background experiments done\n")
			}
			runDone = nil // don't select on the drained channel again
			if *exitWhenDone {
				svc.Drain()
				clean = true
				break loop
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "synts serve: shutdown: %v\n", err)
	}
	if clean {
		// Only a fully drained service can close its shard queues safely.
		svc.Close()
	}
	if *eventsOut != "" {
		if err := telemetry.WriteJSONLFile(*eventsOut); err != nil {
			return err
		}
	}
	if err := finishTrace(); err != nil {
		return err
	}
	return runErr
}

// drainServe is the graceful half of shutdown: stop admission, then wait
// for the service's in-flight requests and the background experiments —
// bounded by the drain timeout and by a second signal, either of which
// cancels the experiment context and abandons the wait. Returns the
// background run's error (nil if it was abandoned) and whether the drain
// completed cleanly.
func drainServe(svc *service.Service, runDone chan error, sig <-chan os.Signal, timeout time.Duration, abort context.CancelFunc, stderr io.Writer) (runErr error, clean bool) {
	drained := make(chan struct{})
	go func() { svc.Drain(); close(drained) }()
	var timeC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeC = t.C
	}
	for drained != nil || runDone != nil {
		select {
		case <-drained:
			drained = nil
		case runErr = <-runDone:
			if runErr != nil {
				fmt.Fprintf(stderr, "synts serve: background run failed: %v\n", runErr)
			}
			runDone = nil
		case <-timeC:
			fmt.Fprintf(stderr, "synts serve: drain timed out after %v, aborting\n", timeout)
			abort()
			return runErr, false
		case s := <-sig:
			fmt.Fprintf(stderr, "synts serve: %v again, aborting\n", s)
			abort()
			return runErr, false
		}
	}
	return runErr, true
}
