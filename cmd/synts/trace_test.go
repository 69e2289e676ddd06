package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"synts/internal/fleet"
	"synts/internal/obs"
)

// fleetScenario is the failover ring walk from the stitcher tests, split
// by process the way a real traced run lands on disk: the loadgen's root
// and attempt, the router's request plus a breaker skip, a dead-backend
// attempt and the failover hop, and the serving daemon's request/solve.
func fleetScenario() map[string][]obs.TraceSpan {
	hx := obs.TraceHex
	return map[string][]obs.TraceSpan{
		"loadgen.trace.jsonl": {
			{Trace: hx(3), Span: hx(3), Name: obs.TSClientRequest, Kind: obs.HopRoot, Proc: "loadgen", Detail: "ok", StartNs: 0, DurNs: 2000},
			{Trace: hx(3), Span: hx(10), Parent: hx(3), Name: obs.TSClientAttempt, Kind: obs.HopFirst, Proc: "loadgen", Detail: "ok", StartNs: 10, DurNs: 1900},
		},
		"route.trace.jsonl": {
			{Trace: hx(3), Span: hx(30), Parent: hx(10), Name: obs.TSRouteRequest, Kind: obs.HopFirst, Proc: "route", Detail: "ok", StartNs: 100, DurNs: 1800},
			{Trace: hx(3), Span: hx(31), Parent: hx(30), Name: obs.TSRouteHop, Kind: obs.HopSkip, Proc: "route", Backend: "b0", Detail: "breaker-open", StartNs: 105, DurNs: 0},
			{Trace: hx(3), Span: hx(32), Parent: hx(30), Name: obs.TSRouteHop, Kind: obs.HopFirst, Proc: "route", Backend: "b1", Detail: "backend-error", StartNs: 110, DurNs: 300},
			{Trace: hx(3), Span: hx(33), Parent: hx(30), Name: obs.TSRouteHop, Kind: obs.HopFailover, Proc: "route", Backend: "b2", Detail: "ok", StartNs: 420, DurNs: 1400},
		},
		"serve-d2.trace.jsonl": {
			{Trace: hx(3), Span: hx(40), Parent: hx(33), Name: obs.TSServiceRequest, Kind: obs.HopFailover, Proc: "serve-d2", Detail: "ok", StartNs: 7, DurNs: 1300},
			{Trace: hx(3), Span: hx(41), Parent: hx(40), Name: obs.TSServiceSolve, Kind: obs.HopSolve, Proc: "serve-d2", StartNs: 20, DurNs: 1000},
		},
	}
}

// writeScenarioDir lays the scenario out as a -trace-dir.
func writeScenarioDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, spans := range fleetScenario() {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteTraceJSONL(f, spans); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// The report surface CI greps: the failover and breaker-skip lines, the
// dominant contributor, and a waterfall naming both. The
// -merged artifact must read back as one canonical file holding every
// per-process span.
func TestTraceCmdReportAndMerge(t *testing.T) {
	dir := writeScenarioDir(t)
	merged := filepath.Join(t.TempDir(), "stitched.trace.jsonl")
	var out bytes.Buffer
	if err := runTraceCmd([]string{"-dir", dir, "-merged", merged}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"synts trace: 1 trace(s) from 8 span(s) across 3 artifact(s); 0 orphan span(s)",
		"dominant p99 contributor: solve",
		"traces with a failover on the critical path: 1",
		"traces whose ring walk skipped an open breaker: 1",
		"failover on critical path",
		"breaker-open skipped",
		"service.solve",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	back, err := obs.ReadTraceFile(merged)
	if err != nil {
		t.Fatalf("merged artifact unreadable: %v", err)
	}
	if len(back) != 8 {
		t.Fatalf("merged artifact holds %d spans, want 8", len(back))
	}
}

// -canon is sharding-invariant: the same spans produce the same bytes
// whether read from three per-process artifacts or one merged file.
func TestTraceCmdCanonShardingInvariant(t *testing.T) {
	dir := writeScenarioDir(t)
	merged := filepath.Join(t.TempDir(), "merged.trace.jsonl")
	if err := runTraceCmd([]string{"-dir", dir, "-merged", merged}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	var fromDir, fromMerged bytes.Buffer
	if err := runTraceCmd([]string{"-dir", dir, "-canon"}, &fromDir, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := runTraceCmd([]string{"-canon", merged}, &fromMerged, io.Discard); err != nil {
		t.Fatal(err)
	}
	if fromDir.Len() == 0 || !bytes.Equal(fromDir.Bytes(), fromMerged.Bytes()) {
		t.Fatal("canonical projection depends on how spans were sharded into artifacts")
	}
}

// Without artifacts the command is a usage error, not an empty report.
func TestTraceCmdRequiresArtifacts(t *testing.T) {
	if err := runTraceCmd(nil, io.Discard, io.Discard); err == nil {
		t.Fatal("trace with no artifacts succeeded")
	}
}

// The router's /metrics endpoint (the RED satellite): drive one failover
// through the real mux — b0 answers 500 so its breaker (Failures: 1)
// opens and the request replays on b1 — then scrape and grammar-check the
// exposition, and pin the per-backend RED counters, the breaker-state
// gauge and the failover counter the dashboard alerts on.
func TestRouteMetricsScrape(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			io.WriteString(w, "ready\n")
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			io.WriteString(w, "ready\n")
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer good.Close()

	// runRouteCmd enables the registry before serving; the mux-level test
	// must do the same or every counter Add is a gated no-op.
	obs.Enable()
	defer obs.Disable()

	urls := []string{bad.URL, good.URL}
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Backends:      urls,
		ProbeInterval: 10 * time.Millisecond,
		Breaker:       fleet.BreakerConfig{Failures: 1, Cooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(newRouteMux(rt))
	defer front.Close()
	rt.Start()
	defer rt.Stop()

	// Pick one body the ring maps to each backend, so both RED families
	// exist and the bad-first body provably walks bad → good.
	ring := fleet.NewRing(urls)
	bodyTo := map[int][]byte{}
	for i := 0; len(bodyTo) < 2; i++ {
		b := []byte(fmt.Sprintf(`{"id":%d}`, i))
		first := ring.Seq(fleet.BodyDigest(b))[0]
		if _, ok := bodyTo[first]; !ok {
			bodyTo[first] = b
		}
	}

	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(front.URL+fleet.SolvePath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Wait until the probe loop has marked both backends ready. A solve
	// sent earlier can skip a not-yet-probed b1 and land on b0, whose 500
	// opens b0's breaker for the whole cooldown; the bad-first request
	// below would then skip b0 and never fail over.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(front.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		ready, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(ready), "(2/2 backends)") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never became ready (last /readyz %q)", ready)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp := post(bodyTo[1])
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good-first request: status %d, want 200", resp.StatusCode)
	}
	resp = post(bodyTo[0])
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(fleet.HeaderFailover) == "" {
		t.Fatalf("bad-first request: status %d failover %q, want 200 with a failover hop",
			resp.StatusCode, resp.Header.Get(fleet.HeaderFailover))
	}

	scrape, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(scrape.Body)
	scrape.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheusText(payload); err != nil {
		t.Fatalf("/metrics violates the exposition grammar: %v\n%s", err, payload)
	}
	text := string(payload)
	for _, want := range []string{
		"synts_route_backend_b0_requests_total",
		"synts_route_backend_b1_requests_total",
		"synts_route_backend_b1_ok_total",
		"synts_route_backend_b0_breaker_state",
		"synts_route_breaker_open_total",
		"synts_route_requests_failover_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
