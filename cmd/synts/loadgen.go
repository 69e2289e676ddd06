package main

// `synts loadgen` drives a live `synts serve` instance with a seeded,
// deterministic open-loop request stream and writes a synts-load/v1
// report. Open-loop means arrivals follow the clock, not the responses:
// request i fires at start + i/RPS no matter how the service is coping,
// so overload shows up honestly as shed responses and rising quantiles
// instead of being hidden by a generator that politely slows down. The
// same seed replays the same request bodies in the same order, which is
// what lets CI compare runs and the determinism tests compare servers.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"synts/internal/service"
)

func runLoadgenCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://127.0.0.1:9187", "base URL of one synts serve daemon, or of a synts route router in front of several")
	timeout := fs.Duration("timeout", 0, "per-request deadline, retries included (0 = fleet client default 30s)")
	retries := fs.Int("retries", 0, "extra attempts per logical request (seeded full-jitter backoff; 0 = single-shot)")
	rps := fs.Float64("rps", 50, "target open-loop arrival rate")
	duration := fs.Duration("duration", 5*time.Second, "run length (request count = rps * duration, fixed up front)")
	seed := fs.Int64("seed", 1, "request-stream seed (same seed = identical request bodies)")
	repeat := fs.Float64("repeat", 0, "fraction of requests reusing an earlier payload (exercises the warm cache; 0 = default 0.25, negative disables)")
	sloP95 := fs.Float64("slo-p95-ms", 0, "SLO: fail if p95 latency exceeds `ms` (0 = no latency gate)")
	sloErr := fs.Float64("slo-max-error-frac", 0, "SLO: fail if (errors+dropped)/requests exceeds this fraction")
	out := fs.String("o", "", "write the synts-load/v1 report to `file` (default stdout)")
	failOnSLO := fs.Bool("fail-on-slo", false, "exit non-zero when the SLO gate fails")
	traceDir := fs.String("trace-dir", "", "enable distributed tracing: inject X-Synts-Trace headers and write the client-side synts-trace/v1 artifact (loadgen.trace.jsonl) into `dir`")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: synts loadgen [-url URL] [-rps N] [-duration D] [-seed N] [-o FILE]\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	finishTrace, err := startTraceArtifact(*traceDir, "loadgen", "loadgen", stderr)
	if err != nil {
		return err
	}

	rep, err := service.RunLoad(service.LoadOptions{
		URL:      *url,
		Timeout:  *timeout,
		Retries:  *retries,
		RPS:      *rps,
		Duration: *duration,
		Gen:      service.GenOptions{Seed: *seed, RepeatFrac: *repeat},
		SLO:      service.SLO{P95MaxMs: *sloP95, MaxErrorFrac: *sloErr},
		Trace:    *traceDir != "",
	})
	if err != nil {
		return err
	}
	if err := finishTrace(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			return err
		}
	} else {
		stdout.Write(raw)
	}
	fmt.Fprintf(stderr, "synts loadgen: %d requests at %.1f rps (target %.1f): %d ok, %d shed, %d client errors, %d errors, %d dropped; p95 %.2f ms; SLO %s\n",
		rep.Requests, rep.AchievedRPS, rep.TargetRPS, rep.OK, rep.Shed, rep.ClientErrors, rep.Errors, rep.Dropped,
		rep.Latency.P95, map[bool]string{true: "pass", false: "FAIL"}[rep.SLOPass])
	if rep.Retries+rep.Failovers > 0 {
		fmt.Fprintf(stderr, "synts loadgen: resilience: %d retries, %d failovers\n", rep.Retries, rep.Failovers)
	}
	if rep.OK > 0 {
		hb := rep.HopBreakdown.P99
		fmt.Fprintf(stderr, "synts loadgen: p99 attribution: total %.2f ms = client-queue %.2f + retry-wait %.2f + network %.2f + router %.2f + daemon-queue %.2f + solve %.2f\n",
			hb.TotalMs, hb.ClientQueueMs, hb.RetryWaitMs, hb.NetworkMs, hb.RouterMs, hb.DaemonQueueMs, hb.SolveMs)
	}
	if *failOnSLO && !rep.SLOPass {
		return fmt.Errorf("SLO gate failed (p95 %.2f ms vs %.2f ms max; error frac %.4f vs %.4f max)",
			rep.Latency.P95, rep.SLO.P95MaxMs,
			float64(rep.Errors+rep.Dropped)/float64(rep.Requests), rep.SLO.MaxErrorFrac)
	}
	return nil
}
