package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"synts/internal/obs"
	"synts/internal/telemetry"
)

// planOut runs `synts route -plan` and returns its stdout.
func planOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := runRouteCmd(args, nil, &out, io.Discard); err != nil {
		t.Fatalf("route %v: %v", args, err)
	}
	return out.String()
}

// The routing plan is the placement golden: the same seed and backend
// list print byte-identical plans across invocations, every request
// lands on a listed backend, and the spread over three backends is not
// degenerate. This pins the ring's determinism at the CLI surface — CI
// runs the same command twice and cmps.
func TestRoutePlanDeterministic(t *testing.T) {
	backends := "http://127.0.0.1:9301,http://127.0.0.1:9302,http://127.0.0.1:9303"
	a := planOut(t, "-backends", backends, "-plan", "200", "-plan-seed", "7")
	b := planOut(t, "-backends", backends, "-plan", "200", "-plan-seed", "7")
	if a != b {
		t.Fatal("same seed and backends produced different plans")
	}
	lines := strings.Split(strings.TrimSuffix(a, "\n"), "\n")
	if len(lines) != 200 {
		t.Fatalf("plan has %d lines, want 200", len(lines))
	}
	hits := map[string]int{}
	for i, l := range lines {
		f := strings.Fields(l)
		if len(f) != 4 {
			t.Fatalf("line %d: %q, want 4 fields (index digest backend url)", i, l)
		}
		hits[f[2]]++
	}
	for _, b := range []string{"b0", "b1", "b2"} {
		if hits[b] == 0 {
			t.Errorf("backend %s receives no requests in a 200-request plan: %v", b, hits)
		}
	}

	if c := planOut(t, "-backends", backends, "-plan", "200", "-plan-seed", "8"); c == a {
		t.Fatal("different seeds produced identical plans")
	}
}

// Without -backends the command is a usage error, not a panic or a
// served-but-empty router.
func TestRouteRequiresBackends(t *testing.T) {
	if err := runRouteCmd([]string{"-plan", "5"}, nil, io.Discard, io.Discard); err == nil {
		t.Fatal("route without -backends succeeded")
	}
}

// runRouteCmd past -plan: on a port-0 listener in front of one backend,
// with a signal already waiting, the router comes up, drains and writes
// a header-only router ledger and a trace artifact named from the
// address it bound.
func TestRouteServesUntilStopped(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ready\n")
	}))
	defer backend.Close()
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "router_events.jsonl")
	defer telemetry.Disable()
	var stderr bytes.Buffer
	err := runRouteCmd([]string{"-addr", "127.0.0.1:0", "-backends", backend.URL,
		"-events-out", eventsPath, "-trace-dir", dir}, interrupted(), io.Discard, &stderr)
	if err != nil {
		t.Fatalf("runRouteCmd: %v\nstderr: %s", err, stderr.String())
	}
	events, err := telemetry.ReadJSONLFile(eventsPath)
	if err != nil {
		t.Fatalf("router ledger not readable: %v", err)
	}
	if len(events) != 0 {
		t.Errorf("router ledger holds %d events, want none", len(events))
	}
	_, rest, ok := strings.Cut(stderr.String(), "listening on http://")
	if !ok {
		t.Fatalf("stderr missing listen line: %s", stderr.String())
	}
	addr := strings.TrimSuffix(strings.Fields(rest)[0], ",")
	if _, err := obs.ReadTraceFile(filepath.Join(dir, traceProcName("route", addr)+".trace.jsonl")); err != nil {
		t.Errorf("trace artifact: %v\nstderr: %s", err, stderr.String())
	}
}

// loadgen sends to one URL: a comma-separated list is refused before any
// request leaves, with an error that points at the router.
func TestLoadgenRefusesSeveralURLs(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer srv.Close()
	var stdout bytes.Buffer
	err := runLoadgenCmd([]string{"-url", srv.URL + "," + srv.URL, "-rps", "10", "-duration", "1s"}, &stdout, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "synts route") {
		t.Fatalf("-url A,B: err = %v, want a refusal naming synts route", err)
	}
	if n := hits.Load(); n != 0 || stdout.Len() != 0 {
		t.Errorf("-url A,B: %d requests sent, stdout %q; want none", n, stdout.String())
	}
}
