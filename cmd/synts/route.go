package main

// `synts route` fronts several `synts serve` daemons with the
// internal/fleet consistent-hash router: request bodies are mapped onto
// backends by digest, unhealthy or breaker-opened backends are routed
// around deterministically (the ring-walk failover order is a pure
// function of the body), and /readyz probes keep the health view fresh
// on a seeded-jitter loop. The router carries the same observability
// surface as serve — /metrics Prometheus exposition, per-backend RED
// metrics, breaker/failover events in the synts-events/v1 ledger via
// -events-out — and the same deterministic -chaos injector, extended
// with the fleet classes (backend-down, backend-flap, resp-torn,
// net-slow) so a kill-a-backend drill is reproducible from a seed.
//
// -plan N skips serving entirely: it prints the routing plan for the
// first N seeded loadgen request bodies (the same stream `synts loadgen
// -seed S` sends) and exits. Two invocations with equal flags print
// byte-identical plans — CI diffs them to pin placement determinism.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"synts/internal/faults"
	"synts/internal/fleet"
	"synts/internal/obs"
	"synts/internal/service"
	"synts/internal/telemetry"
)

func runRouteCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9186", "listen address for the routed /v1/solve and /metrics")
	backends := fs.String("backends", "", "comma-separated `list` of synts serve base URLs (required)")
	replicas := fs.Int("replicas", 0, "ring vnodes per backend (0 = default 64)")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "/readyz probe period (plus seeded jitter)")
	probeSeed := fs.Int64("probe-seed", 1, "seed for the probe loop's jitter")
	timeout := fs.Duration("timeout", 10*time.Second, "per-attempt proxy timeout")
	maxHops := fs.Int("max-hops", 0, "failover hop budget per request (0 = all backends)")
	breakerFailures := fs.Int("breaker-failures", 0, "consecutive failures that open a backend's breaker (0 = default 5)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = default 2s)")
	chaosSpec := fs.String("chaos", "off", "deterministic fault injection `spec`: class[=rate],... (fleet classes: backend-down, backend-flap, resp-torn, net-slow)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the fault injector's decisions")
	eventsOut := fs.String("events-out", "", "write the router ledger (synts-events/v1 JSONL, breaker + failover events) to `file` on shutdown")
	traceDir := fs.String("trace-dir", "", "record distributed-trace context on routed requests and write the router's synts-trace/v1 artifact into `dir` on shutdown")
	plan := fs.Int("plan", 0, "print the routing plan for the first `N` seeded loadgen bodies and exit (no server)")
	planSeed := fs.Int64("plan-seed", 1, "request-stream seed for -plan (matches loadgen -seed)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: synts route -backends URL,URL,... [-addr HOST:PORT] [flags]\n       synts route -backends URL,URL,... -plan N [-plan-seed S]\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fs.Usage()
		return fmt.Errorf("-backends is required")
	}

	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Backends:      urls,
		Replicas:      *replicas,
		ProbeInterval: *probeInterval,
		ProbeSeed:     *probeSeed,
		Timeout:       *timeout,
		MaxHops:       *maxHops,
		Breaker: fleet.BreakerConfig{
			Failures: *breakerFailures,
			Cooldown: *breakerCooldown,
		},
	})
	if err != nil {
		return err
	}

	if *plan > 0 {
		// Placement is a pure function of the bodies and the backend list:
		// no probes, no chaos, no server. The stream is the one loadgen
		// replays for the same seed, so the plan predicts a real run.
		reqs := service.GenStream(service.GenOptions{Seed: *planSeed}, *plan)
		// Bodies are rendered exactly the way loadgen renders them
		// (json.Marshal of the SolveRequest), so the plan's digests match
		// the bytes a real run routes on.
		bodies := make([][]byte, len(reqs))
		for i := range reqs {
			b, err := json.Marshal(&reqs[i])
			if err != nil {
				return fmt.Errorf("route: marshal plan body %d: %w", i, err)
			}
			bodies[i] = b
		}
		for i, b := range rt.Plan(bodies) {
			fmt.Fprintf(stdout, "%6d %016x b%d %s\n", i, fleet.BodyDigest(bodies[i]), b, urls[b])
		}
		return nil
	}

	// Routing implies instrumentation, same as serving.
	obs.Enable()
	telemetry.Enable()
	if *eventsOut != "" {
		if err := telemetry.SetSpill(*eventsOut + ".spill"); err != nil {
			return err
		}
	}
	if err := faults.Enable(*chaosSpec, *chaosSeed); err != nil {
		return fmt.Errorf("-chaos: %w", err)
	}

	mux := newRouteMux(rt)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	finishTrace, err := startTraceArtifact(*traceDir, "route", traceProcName("route", ln.Addr().String()), stderr)
	if err != nil {
		ln.Close()
		return err
	}
	rt.Start()
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "synts route: listening on http://%s, fronting %d backend(s)\n", ln.Addr(), len(urls))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(stderr, "synts route: %v, shutting down\n", s)
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	}
	rt.Stop()
	if err := srv.Close(); err != nil {
		fmt.Fprintf(stderr, "synts route: close: %v\n", err)
	}
	if *eventsOut != "" {
		if err := telemetry.WriteJSONLFile(*eventsOut); err != nil {
			return err
		}
	}
	return finishTrace()
}

// newRouteMux builds the router's handler tree: the routed /v1/solve plus
// the /metrics Prometheus exposition carrying the per-backend RED metrics
// and breaker-state gauges. Factored out of runRouteCmd so tests can
// scrape and grammar-check /metrics through httptest without a socket.
func newRouteMux(rt *fleet.Router) *http.ServeMux {
	mux := http.NewServeMux()
	rt.Register(mux)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		obs.C("route.scrapes").Add(1)
		var buf bytes.Buffer
		if err := obs.Default().WritePrometheus(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
	return mux
}
