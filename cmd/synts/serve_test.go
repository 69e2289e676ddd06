package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"synts/internal/obs"
	"synts/internal/service"
)

// The serve mux with a mounted service exposes the solve API next to the
// observability endpoints.
func TestServeMuxMountsService(t *testing.T) {
	svc, err := service.New(service.Config{Shards: 1, QueueLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { svc.Drain(); svc.Close() }()
	srv := httptest.NewServer(newServeMux(svc))
	defer srv.Close()

	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
	}

	reqs := service.GenStream(service.GenOptions{Seed: 1, Cores: 2}, 1)
	body, _ := json.Marshal(&reqs[0])
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/solve status %d: %s", resp.StatusCode, raw)
	}
	var sr service.SolveResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("solve response: %v", err)
	}
	if sr.Schema != service.ResponseSchema {
		t.Errorf("schema %q", sr.Schema)
	}
}

// Satellite: the Prometheus bridge under concurrent scrape and write —
// /metrics is scraped in a tight loop while solve requests mutate the
// registry, and every scrape must satisfy the exposition grammar. Run
// with -race to make the concurrency claim mean something.
func TestMetricsUnderConcurrentScrapeAndWrite(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	svc, err := service.New(service.Config{Shards: 2, QueueLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { svc.Drain(); svc.Close() }()
	srv := httptest.NewServer(newServeMux(svc))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: a stream of solve requests mutating counters, histograms,
	// gauges and spans.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			reqs := service.GenStream(service.GenOptions{Seed: seed, Cores: 2}, 50)
			for i := 0; ; i = (i + 1) % len(reqs) {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(&reqs[i])
				resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(int64(w + 1))
	}
	// Scraper: every scrape must be grammatically valid exposition text.
	deadline := time.Now().Add(500 * time.Millisecond)
	scrapes := 0
	for time.Now().Before(deadline) {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape status %d", resp.StatusCode)
		}
		if err := obs.ValidatePrometheusText(payload); err != nil {
			t.Fatalf("scrape %d grammatically invalid: %v", scrapes, err)
		}
		scrapes++
	}
	close(stop)
	wg.Wait()
	if scrapes == 0 {
		t.Fatal("no scrapes completed")
	}
}

// drainServe: a clean drain waits for the service and the background run;
// a second signal aborts the wait and cancels the background context.
func TestDrainServe(t *testing.T) {
	svc, err := service.New(service.Config{Shards: 1, QueueLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	t.Run("clean", func(t *testing.T) {
		runDone := make(chan error, 1)
		runDone <- nil
		var stderr bytes.Buffer
		runErr, clean := drainServe(svc, runDone, nil, time.Minute, func() {}, &stderr)
		if runErr != nil || !clean {
			t.Fatalf("clean drain: err=%v clean=%v", runErr, clean)
		}
		// The service no longer admits.
		rr := httptest.NewRecorder()
		mux := http.NewServeMux()
		svc.Register(mux)
		req := httptest.NewRequest("GET", "/readyz", nil)
		mux.ServeHTTP(rr, req)
		if rr.Code != http.StatusServiceUnavailable {
			t.Errorf("readyz after drain: %d", rr.Code)
		}
	})

	t.Run("second signal aborts", func(t *testing.T) {
		runDone := make(chan error, 1) // background run never finishes
		sig := make(chan os.Signal, 1)
		sig <- os.Interrupt
		aborted := false
		var stderr bytes.Buffer
		_, clean := drainServe(svc, runDone, sig, time.Minute, func() { aborted = true }, &stderr)
		if clean || !aborted {
			t.Fatalf("second signal: clean=%v aborted=%v", clean, aborted)
		}
	})

	t.Run("timeout aborts", func(t *testing.T) {
		runDone := make(chan error, 1)
		aborted := false
		var stderr bytes.Buffer
		_, clean := drainServe(svc, runDone, nil, time.Millisecond, func() { aborted = true }, &stderr)
		if clean || !aborted {
			t.Fatalf("timeout: clean=%v aborted=%v", clean, aborted)
		}
	})
}

// Two daemons started on port 0 with one shared -trace-dir write two
// artifacts: each is named (and its spans stamped) from the address the
// daemon actually bound, not from the "127.0.0.1:0" flag value.
func TestServeTraceArtifactNamedByBoundAddress(t *testing.T) {
	dir := t.TempDir()
	var want []string
	for i := 0; i < 2; i++ {
		var stderr bytes.Buffer
		err := runServeCmd([]string{"-addr", "127.0.0.1:0", "-shards", "1", "-exit-when-done", "-trace-dir", dir},
			io.Discard, &stderr)
		if err != nil {
			t.Fatalf("runServeCmd: %v\nstderr: %s", err, stderr.String())
		}
		_, rest, ok := strings.Cut(stderr.String(), "listening on http://")
		if !ok {
			t.Fatalf("stderr missing listen line: %s", stderr.String())
		}
		addr := strings.Fields(rest)[0]
		want = append(want, traceProcName("serve", addr)+".trace.jsonl")
		// Hold the first daemon's port so the second is bound elsewhere.
		if ln, err := net.Listen("tcp", addr); err == nil {
			defer ln.Close()
		}
	}
	got, err := filepath.Glob(filepath.Join(dir, "*.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d trace artifacts %v, want 2 distinct ones %v", len(got), got, want)
	}
	for _, name := range want {
		if _, err := obs.ReadTraceFile(filepath.Join(dir, name)); err != nil {
			t.Errorf("artifact %s: %v", name, err)
		}
	}
}
