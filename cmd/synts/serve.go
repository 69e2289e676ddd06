package main

// `synts serve` is the solver daemon: it answers POST /v1/solve, backed
// by internal/service's solver workers with warm starts and load
// shedding, the request online SynTS makes at every barrier interval.
// Its instrumentation can be watched live — Prometheus text exposition
// at /metrics (bridged from internal/obs), the stdlib expvar JSON at
// /debug/vars, net/http/pprof at /debug/pprof/, and /healthz + /readyz
// for orchestration.
//
// Shutdown drains instead of aborting (serveUntilStopped, shared with
// `synts route`): the first SIGINT/SIGTERM stops admission (new solve
// requests answer 503 draining, /readyz flips) and waits — bounded by
// -drain-timeout — for in-flight requests to complete; a second signal or
// the timeout abandons what remains. Either way shutdown writes the
// -events-out and -trace-dir artifacts that were asked for.
//
// The metrics registry is always on: the endpoints are the point of
// serving. The decision ledger records only when -events-out names a
// file, as in batch runs. Online SynTS calls the solver every barrier
// interval, and a daemon without a sink would otherwise keep a copy of
// every answer it gives.

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
	"runtime"
	"strings"
	"time"

	"synts/internal/faults"
	"synts/internal/obs"
	"synts/internal/service"
	"synts/internal/telemetry"
)

// newServeMux builds the serve handler tree around an optional solver
// service. Factored out of runServeCmd so tests can drive it through
// httptest without binding a socket.
func newServeMux(svc *service.Service) *http.ServeMux {
	mux := http.NewServeMux()
	if svc != nil {
		svc.Register(mux)
	}
	mux.HandleFunc("/metrics", metricsHandler("serve.scrapes"))
	mux.Handle("/debug/vars", expvar.Handler())
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
		fmt.Fprint(w, "synts serve\n\n/v1/solve       POST a synts-solve-req/v1 per-interval solve\n/healthz        process liveness\n/readyz         admission readiness (503 while draining)\n/metrics        Prometheus text exposition\n/debug/vars     expvar JSON\n/debug/pprof/   pprof index\n")
	})
	return mux
}

// metricsHandler is /metrics for both daemons: it counts the scrape under
// scrapes, refreshes the ledger-size gauge and writes the registry's
// Prometheus text exposition. It records no timing: a daemon is scraped
// for as long as it runs, and a timed scrape would add a summary family
// to every later scrape.
func metricsHandler(scrapes string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		obs.C(scrapes).Add(1)
		obs.G("telemetry.events").Set(float64(telemetry.Len()))
		var buf bytes.Buffer
		if err := obs.Default().WritePrometheus(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	}
}

// serveChaos are the fault classes whose hooks a daemon reaches: its
// solver workers' task-start hook and the request slowdown.
var serveChaos = []string{faults.TaskPanic, faults.ReqSlow}

// runServeCmd implements the serve subcommand. It serves until the first
// value on stop, drains, shuts the listener down and writes the
// -events-out ledger and -trace-dir artifact if they were requested.
func runServeCmd(args []string, stop <-chan os.Signal, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9187", "listen address for /v1/solve, /metrics, /debug/vars, /debug/pprof/")
	shards := fs.Int("shards", runtime.NumCPU(), "solver worker count")
	queueLen := fs.Int("queue", 64, "solve-queue slots per worker (a full queue sheds with 429)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests before aborting (0 = forever)")
	chaosSpec := fs.String("chaos", "off", "deterministic fault injection `spec`: class[=rate],... (classes: "+strings.Join(serveChaos, ", ")+")")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the fault injector's decisions")
	eventsOut := fs.String("events-out", "", "record the decision ledger and write it (synts-events/v1 JSONL) to `file` on shutdown; without it no ledger is recorded")
	traceDir := fs.String("trace-dir", "", "record incoming distributed-trace context and write this daemon's synts-trace/v1 artifact into `dir` on shutdown")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: synts serve [-addr HOST:PORT] [flags]\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	// -chaos is checked first, so a refused spec leaves an existing ledger
	// at the -events-out path untouched. The injector is this daemon's: it
	// goes off again when serve returns, a failed start-up included.
	if err := faults.Enable(*chaosSpec, *chaosSeed, serveChaos); err != nil {
		return fmt.Errorf("-chaos: %w", err)
	}
	defer faults.Disable()
	obs.Enable()
	finishEvents, err := startEventsLedger(*eventsOut, "synts serve", stderr)
	if err != nil {
		return err
	}

	svc, err := service.New(service.Config{Shards: *shards, QueueLen: *queueLen})
	if err != nil {
		return err
	}

	// Until the listener is up no request can reach the solve queue, so
	// a failed start-up closes it and its workers exit.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		return err
	}
	finishTrace, err := startTraceArtifact(*traceDir, "serve", traceProcName("serve", ln.Addr().String()), stderr)
	if err != nil {
		ln.Close()
		svc.Close()
		return err
	}
	fmt.Fprintf(stderr, "synts serve: listening on http://%s (/v1/solve, /metrics, /debug/vars, /debug/pprof/)\n", ln.Addr())
	clean, err := serveUntilStopped("serve", ln, newServeMux(svc), stop, svc.Drain, *drainTimeout, stderr)
	if err != nil {
		return err
	}
	if clean {
		// Only a fully drained service can close its solve queue safely.
		svc.Close()
	}
	if err := finishEvents(); err != nil {
		return err
	}
	return finishTrace()
}

// serveUntilStopped is the lifecycle `synts serve` and `synts route`
// share. It serves h on ln until the first value on stop, then runs
// drain; a second value on stop, or the timeout (0 = none), abandons the
// drain. In every case it then shuts the server down, giving requests
// still in flight 5 s, waits for Serve to return, and reports whether the
// drain finished. cmd prefixes its stderr lines.
func serveUntilStopped(cmd string, ln net.Listener, h http.Handler, stop <-chan os.Signal, drain func(), timeout time.Duration, stderr io.Writer) (clean bool, err error) {
	srv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case s := <-stop:
		fmt.Fprintf(stderr, "synts %s: %v, draining (signal again to abort)\n", cmd, s)
	case err := <-serveErr:
		return false, fmt.Errorf("http server: %w", err)
	}

	drained := make(chan struct{})
	go func() { drain(); close(drained) }()
	var timeC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeC = t.C
	}
	select {
	case <-drained:
		clean = true
	case <-timeC:
		fmt.Fprintf(stderr, "synts %s: drain timed out after %v, aborting\n", cmd, timeout)
	case s := <-stop:
		fmt.Fprintf(stderr, "synts %s: %v again, aborting\n", cmd, s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "synts %s: shutdown: %v\n", cmd, err)
	}
	<-serveErr // http.ErrServerClosed: Shutdown has closed ln
	return clean, nil
}
