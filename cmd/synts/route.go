package main

// `synts route` fronts several `synts serve` daemons with the
// internal/fleet consistent-hash router: request bodies are mapped onto
// backends by digest, unhealthy or breaker-opened backends are routed
// around deterministically (the ring-walk failover order is a pure
// function of the body), and a /readyz probe of every backend each
// -probe-interval keeps the health view fresh. The router carries the same observability
// surface as serve — /metrics Prometheus exposition, per-backend RED
// metrics, breaker/failover events in the synts-events/v1 ledger when
// -events-out names a file. It injects no faults: a failover drill kills
// a real daemon.
//
// -plan N skips serving entirely: it prints the routing plan for the
// first N seeded loadgen request bodies (the same stream `synts loadgen
// -seed S` sends) and exits. Two invocations with equal flags print
// byte-identical plans — CI diffs them to pin placement determinism.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"synts/internal/fleet"
	"synts/internal/obs"
	"synts/internal/service"
)

func runRouteCmd(args []string, stop <-chan os.Signal, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9186", "listen address for the routed /v1/solve and /metrics")
	backends := fs.String("backends", "", "comma-separated `list` of synts serve base URLs (required)")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "/readyz probe period")
	breakerFailures := fs.Int("breaker-failures", 0, "consecutive failures that open a backend's breaker (0 = default 5)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = default 2s)")
	eventsOut := fs.String("events-out", "", "record the router ledger and write it (synts-events/v1 JSONL, breaker + failover events) to `file` on shutdown; without it no ledger is recorded")
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
		ProbeInterval: *probeInterval,
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
		// no probes, no server. The stream is the one loadgen replays for
		// the same seed, so the plan predicts a real run.
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

	// As in serve: the metrics registry is always on, the ledger only
	// when -events-out names a file.
	obs.Enable()
	finishEvents, err := startEventsLedger(*eventsOut, "synts route", stderr)
	if err != nil {
		return err
	}

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
	fmt.Fprintf(stderr, "synts route: listening on http://%s, fronting %d backend(s)\n", ln.Addr(), len(urls))
	// Stopping the probe loop is the router's whole drain: proxied
	// requests finish under serveUntilStopped's shutdown bound.
	if _, err := serveUntilStopped("route", ln, newRouteMux(rt), stop, rt.Stop, 0, stderr); err != nil {
		return err
	}
	if err := finishEvents(); err != nil {
		return err
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
	mux.HandleFunc("/metrics", metricsHandler("route.scrapes"))
	return mux
}
