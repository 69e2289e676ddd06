package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synts/internal/exp"
	"synts/internal/obs"
	"synts/internal/telemetry"
)

// ledgerFor runs the named experiments with the ledger recording and
// returns the canonical serialised bytes plus the stdout stream.
func ledgerFor(t *testing.T, names []string, jobs int) (ledger, stdout []byte) {
	t.Helper()
	opts := exp.DefaultOptions()
	opts.Size = 1
	opts.MaxIntervals = 1 // keep the race-detector run inside the package timeout
	telemetry.Enable()
	defer telemetry.Disable()
	var out bytes.Buffer
	if err := runAllCtx(context.Background(), names, opts, jobs, &out); err != nil {
		t.Fatalf("-j %d: %v", jobs, err)
	}
	var led bytes.Buffer
	if err := telemetry.WriteJSONL(&led, telemetry.Events()); err != nil {
		t.Fatal(err)
	}
	return led.Bytes(), out.Bytes()
}

// The ledger determinism golden: -events-out must serialise byte-identical
// ledgers at -j 1 and -j 4, without perturbing stdout. (The CI
// obs-artifacts job additionally byte-compares a recording `all` run's
// stdout against a plain serial run at full interval depth.)
func TestEventsOutIdenticalAcrossJobCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full telemetry-emitting experiment twice")
	}
	names := []string{"fig6.18"}

	led1, out1 := ledgerFor(t, names, 1)
	led4, out4 := ledgerFor(t, names, 4)
	if !bytes.Equal(led1, led4) {
		t.Error("-j 1 and -j 4 ledgers differ byte-for-byte")
	}
	if !bytes.Equal(out1, out4) {
		t.Error("-j 1 and -j 4 stdout differ while recording")
	}

	events, err := telemetry.ReadJSONL(bytes.NewReader(led1))
	if err != nil {
		t.Fatalf("ledger does not round-trip: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("fig6.18 recorded no events")
	}
	kinds := map[string]int{}
	for i := range events {
		if err := events[i].Validate(); err != nil {
			t.Fatalf("event %d invalid: %v", i, err)
		}
		kinds[events[i].Kind]++
	}
	for _, kind := range []string{telemetry.KindDecision, telemetry.KindBarrier, telemetry.KindEstimate, telemetry.KindReplay} {
		if kinds[kind] == 0 {
			t.Errorf("ledger has no %q events", kind)
		}
	}
}

// The serve mux must expose valid Prometheus text on /metrics, carrying
// the ledger size, and valid expvar JSON on /debug/vars.
func TestServeMuxEndpoints(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	telemetry.Enable()
	defer telemetry.Disable()
	telemetry.Record(telemetry.Event{Kind: telemetry.KindDecision, Bench: "b", Stage: "s", Solver: "SynTS"})

	srv := httptest.NewServer(newServeMux(nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	if err := obs.ValidatePrometheusText(body); err != nil {
		t.Fatalf("/metrics is not valid exposition text: %v\n%s", err, body)
	}
	for _, want := range []string{"\nsynts_serve_scrapes_total 1\n", "\nsynts_telemetry_events 1\n"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}

	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars has no memstats")
	}

	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", resp.StatusCode)
	}
}

// runServeCmd with a signal already waiting must come up, drain, write
// the (header-only) ledger and exit cleanly. Experiment names are no
// longer serve's business: given any, it refuses to start.
func TestServeExitWhenDone(t *testing.T) {
	if err := runServeCmd([]string{"-addr", "127.0.0.1:0", "all"}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("serve with an experiment name: err = %v, want unexpected arguments", err)
	}

	eventsPath := filepath.Join(t.TempDir(), "events.jsonl")
	defer telemetry.Disable()
	var stderr bytes.Buffer
	err := runServeCmd([]string{"-addr", "127.0.0.1:0", "-events-out", eventsPath}, interrupted(), &stderr)
	if err != nil {
		t.Fatalf("runServeCmd: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "listening on") {
		t.Errorf("stderr missing listen line: %s", stderr.String())
	}
	events, err := telemetry.ReadJSONLFile(eventsPath)
	if err != nil {
		t.Fatalf("events-out not readable: %v", err)
	}
	if len(events) != 0 {
		t.Errorf("expected an empty ledger, got %d events", len(events))
	}
}

// interrupted returns a daemon stop channel holding one signal, so the
// daemon drains and shuts down as soon as it is serving.
func interrupted() <-chan os.Signal {
	stop := make(chan os.Signal, 1)
	stop <- os.Interrupt
	return stop
}

// Without -events-out a daemon records no ledger: nothing would ever read
// it, and each answer would leave its estimate/decision/barrier events in
// the heap for as long as the daemon runs.
func TestServeWithoutEventsOutRecordsNoLedger(t *testing.T) {
	telemetry.Disable()
	var stderr bytes.Buffer
	err := runServeCmd([]string{"-addr", "127.0.0.1:0", "-shards", "1"}, interrupted(), &stderr)
	if err != nil {
		t.Fatalf("runServeCmd: %v\nstderr: %s", err, stderr.String())
	}
	if telemetry.Enabled() {
		t.Fatal("serve without -events-out left the decision ledger recording")
	}
}

// The -events-out lifecycle shared by batch runs, serve and route: an
// empty path leaves the ledger off and finish does nothing; a path turns
// it on, and finish writes every event as a readable ledger and warns
// about nothing, since the cap dropped nothing.
func TestStartEventsLedger(t *testing.T) {
	telemetry.Disable()
	finish, err := startEventsLedger("", "synts", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.Enabled() {
		t.Fatal("an empty -events-out turned the ledger on")
	}
	if err := finish(); err != nil {
		t.Fatalf("finish without a sink: %v", err)
	}

	path := filepath.Join(t.TempDir(), "events.jsonl")
	var stderr bytes.Buffer
	finish, err = startEventsLedger(path, "synts", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer telemetry.Disable()
	if !telemetry.Enabled() {
		t.Fatal("-events-out did not turn the ledger on")
	}
	const n = 5
	for i := 0; i < n; i++ {
		telemetry.Record(telemetry.Event{Kind: telemetry.KindDecision, Bench: "b", Stage: "s", Solver: "SynTS", Core: i})
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJSONLFile(path)
	if err != nil {
		t.Fatalf("ledger not readable: %v", err)
	}
	if len(events) != n {
		t.Errorf("ledger holds %d events, want %d", len(events), n)
	}
	if stderr.Len() != 0 {
		t.Errorf("finish warned %q with nothing dropped", stderr.String())
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Errorf("the ledger's directory holds %d entries (err %v), want only the ledger", len(entries), err)
	}
}

// A path that cannot be created fails at start, before any run: the
// ledger is not left to fail after the work that fills it.
func TestStartEventsLedgerRefusesUnwritablePath(t *testing.T) {
	telemetry.Disable()
	path := filepath.Join(t.TempDir(), "no-such-dir", "events.jsonl")
	if _, err := startEventsLedger(path, "synts", io.Discard); err == nil {
		t.Fatal("an -events-out in a missing directory was accepted")
	}
	if telemetry.Enabled() {
		t.Error("a refused -events-out turned the ledger on")
	}
}

// The explain subcommand end to end on a tiny run: curves, divergence and
// overhead lines must all render.
func TestExplainCmd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all solvers on a benchmark")
	}
	var out, errb bytes.Buffer
	err := runExplainCmd([]string{"-size", "1", "-intervals", "1", "-stage", "SimpleALU", "radix"}, &out, &errb)
	if err != nil {
		t.Fatalf("explain: %v\nstderr: %s", err, errb.String())
	}
	for _, want := range []string{
		"error probability vs TSR",
		"estimator divergence",
		"online sampling overhead",
		"solver decisions",
		"SynTS-online",
		"replay error rate per op",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("explain output missing %q:\n%s", want, out.String())
		}
	}
}
