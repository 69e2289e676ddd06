package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"synts/internal/fleet"
	"synts/internal/obs"
	"synts/internal/service"
	"synts/internal/telemetry"
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

	reqs := service.GenStream(service.GenOptions{Seed: 1}, 1)
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
			reqs := service.GenStream(service.GenOptions{Seed: seed}, 50)
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

// A daemon without -events-out runs in flat memory: with serve's sinkless
// instrumentation (metrics registry on, ledger off), a stream of distinct
// payloads from distinct tenants leaves almost nothing behind per
// request. The warm-start cache is bounded by WarmCap and shrunk here so
// only state that grows without bound shows. Tenant names must not reach
// /metrics either: "lu-contig" and "lu.contig" fold to one Prometheus
// name, and the exposition must stay grammar-valid.
func TestSinklessServeRetainsNoPerRequestState(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	telemetry.Disable()
	svc, err := service.New(service.Config{Shards: 2, QueueLen: 16, WarmCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { svc.Drain(); svc.Close() }()
	mux := newServeMux(svc)

	const warmup, n = 200, 2000
	reqs := service.GenStream(service.GenOptions{Seed: 13, RepeatFrac: -1}, warmup+n)
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		reqs[i].Tenant = fmt.Sprintf("tenant-%05d", i)
		bodies[i], _ = json.Marshal(&reqs[i])
	}
	post := func(body []byte) {
		t.Helper()
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			t.Fatalf("/v1/solve status %d: %s", rr.Code, rr.Body.String())
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees sync.Pool victims too
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// The first requests allocate the registry families and solver tables.
	for _, b := range bodies[:warmup] {
		post(b)
	}
	before := heap()
	for _, b := range bodies[warmup:] {
		post(b)
	}
	kb := (float64(heap()) - float64(before)) / n / 1024
	runtime.KeepAlive(bodies) // counted in both readings, not freed between them
	t.Logf("%d requests retained %.3f KB each", n, kb)
	if kb > 1 {
		t.Errorf("%d requests retained %.2f KB each, want under 1 KB", n, kb)
	}

	for i, tenant := range []string{"lu-contig", "lu.contig"} {
		reqs[i].Tenant = tenant
		body, _ := json.Marshal(&reqs[i])
		post(body)
	}
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := obs.ValidatePrometheusText(rr.Body.Bytes()); err != nil {
		t.Fatalf("/metrics grammatically invalid after look-alike tenants: %v", err)
	}
}

// serveUntilStopped: a clean drain returns clean, and a second signal or
// the drain timeout abandons a drain that never finishes. However the
// drain ends, the listener refuses connections once the helper returns.
func TestDrainServe(t *testing.T) {
	svc, err := service.New(service.Config{Shards: 1, QueueLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	never := make(chan struct{})
	defer close(never)
	hang := func() { <-never }

	for _, tc := range []struct {
		name    string
		drain   func()
		signals int
		timeout time.Duration
		clean   bool
	}{
		{"clean", svc.Drain, 1, time.Minute, true},
		{"second signal aborts", hang, 2, time.Minute, false},
		{"timeout aborts", hang, 1, time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan os.Signal, tc.signals)
			for i := 0; i < tc.signals; i++ {
				stop <- os.Interrupt
			}
			var stderr bytes.Buffer
			clean, err := serveUntilStopped("serve", ln, newServeMux(svc), stop, tc.drain, tc.timeout, &stderr)
			if err != nil || clean != tc.clean {
				t.Fatalf("clean=%v err=%v, want clean=%v\nstderr: %s", clean, err, tc.clean, stderr.String())
			}
			if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
				c.Close()
				t.Error("listener still accepts connections after serveUntilStopped returned")
			}
		})
	}

	// The clean drain left the service refusing admission.
	rr := httptest.NewRecorder()
	newServeMux(svc).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: %d", rr.Code)
	}
}

// However often a daemon is scraped, /metrics records no timing: the
// registry gains no histogram and the exposition carries no summary
// family.
func TestScrapesRecordNoSpan(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	rt, err := fleet.NewRouter(fleet.RouterConfig{Backends: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for _, d := range []struct {
		name string
		mux  *http.ServeMux
	}{{"serve", newServeMux(nil)}, {"route", newRouteMux(rt)}} {
		var last *httptest.ResponseRecorder
		for i := 0; i < n; i++ {
			last = httptest.NewRecorder()
			d.mux.ServeHTTP(last, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if last.Code != http.StatusOK {
				t.Fatalf("%s /metrics status %d", d.name, last.Code)
			}
		}
		if hists := obs.Default().Snapshot().Histograms; len(hists) != 0 {
			t.Errorf("%d %s scrapes recorded %d histograms: %v", n, d.name, len(hists), hists)
		}
		body := last.Body.String()
		if strings.Contains(body, " summary\n") {
			t.Errorf("%s /metrics carries a summary family:\n%s", d.name, body)
		}
		if want := fmt.Sprintf("\nsynts_%s_scrapes_total %d\n", d.name, n); !strings.Contains(body, want) {
			t.Errorf("%s /metrics missing %q", d.name, strings.TrimSpace(want))
		}
	}
}

// Two daemons started on port 0 with one shared -trace-dir write two
// artifacts: each is named (and its spans stamped) from the address the
// daemon actually bound, not from the "127.0.0.1:0" flag value.
func TestServeTraceArtifactNamedByBoundAddress(t *testing.T) {
	dir := t.TempDir()
	var want []string
	for i := 0; i < 2; i++ {
		var stderr bytes.Buffer
		err := runServeCmd([]string{"-addr", "127.0.0.1:0", "-shards", "1", "-trace-dir", dir}, interrupted(), &stderr)
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
