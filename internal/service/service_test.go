package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"synts/internal/faults"
	"synts/internal/fleet"
	"synts/internal/obs"
	"synts/internal/telemetry"
)

// newTestService builds a Service plus an httptest server around it and
// tears both down with the test.
func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		svc.Drain()
		svc.Close()
	})
	return svc, srv
}

// validRequest is a well-formed 2-core request the platform accepts.
func validRequest(tenant string, seq int) *SolveRequest {
	return &SolveRequest{
		Tenant: tenant,
		Seq:    seq,
		Stage:  "SimpleALU",
		Theta:  1,
		Cores: []CoreCurve{
			{N: 50000, CPIBase: 1.2, Rates: []float64{0.2, 0.1, 0.05, 0.01, 0.001, 0}},
			{N: 40000, CPIBase: 1.1, Rates: []float64{0.3, 0.15, 0.04, 0.02, 0.002, 0}},
		},
	}
}

func postSolve(t *testing.T, url string, r *SolveRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	return resp
}

func decodeSolve(t *testing.T, resp *http.Response) *SolveResponse {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, raw)
	}
	var sr SolveResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("unmarshal response: %v\n%s", err, raw)
	}
	return &sr
}

func TestSolveEndpoint(t *testing.T) {
	_, srv := newTestService(t, Config{Shards: 2, QueueLen: 8})
	req := validRequest("fft", 3)
	resp := postSolve(t, srv.URL, req)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	sr := decodeSolve(t, resp)
	if sr.Schema != ResponseSchema {
		t.Errorf("schema %q, want %q", sr.Schema, ResponseSchema)
	}
	if sr.Tenant != "fft" || sr.Seq != 3 || sr.Stage != "SimpleALU" {
		t.Errorf("envelope echo wrong: %+v", sr)
	}
	if want := DigestID(requestDigest(req)); sr.ID != want {
		t.Errorf("id %q, want %q", sr.ID, want)
	}
	if len(sr.Cores) != 2 {
		t.Fatalf("%d cores in response, want 2", len(sr.Cores))
	}
	for i, c := range sr.Cores {
		if c.Fallback != "" {
			t.Errorf("core %d unexpectedly fell back: %q", i, c.Fallback)
		}
		if c.V <= 0 || c.TSR <= 0 || c.TSR > 1 {
			t.Errorf("core %d implausible assignment: %+v", i, c)
		}
	}
	if sr.Energy <= 0 || sr.TExec <= 0 || sr.Cost <= 0 {
		t.Errorf("implausible totals: %+v", sr)
	}

	// Health endpoints.
	for _, path := range []string{"/healthz", "/readyz"} {
		hr, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, hr.StatusCode)
		}
	}
}

func TestSolveRejectsBadRequests(t *testing.T) {
	_, srv := newTestService(t, Config{Shards: 1, QueueLen: 4})

	if resp, err := http.Get(srv.URL + "/v1/solve"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET status %d, want 405", resp.StatusCode)
		}
	}
	if resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader("{nope")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad JSON status %d, want 400", resp.StatusCode)
		}
	}
	mutations := []struct {
		name string
		mut  func(*SolveRequest)
	}{
		{"empty tenant", func(r *SolveRequest) { r.Tenant = "" }},
		{"negative seq", func(r *SolveRequest) { r.Seq = -1 }},
		{"unknown stage", func(r *SolveRequest) { r.Stage = "FloatALU" }},
		{"negative theta", func(r *SolveRequest) { r.Theta = -0.5 }},
		{"no cores", func(r *SolveRequest) { r.Cores = nil }},
		{"too many cores", func(r *SolveRequest) {
			for len(r.Cores) <= MaxCores {
				r.Cores = append(r.Cores, r.Cores[0])
			}
		}},
		{"rate count mismatch", func(r *SolveRequest) { r.Cores[0].Rates = r.Cores[0].Rates[:3] }},
		{"zero cpi", func(r *SolveRequest) { r.Cores[1].CPIBase = 0 }},
		{"negative instructions", func(r *SolveRequest) { r.Cores[0].N = -1 }},
	}
	for _, m := range mutations {
		req := validRequest("lu-contig", 0)
		m.mut(req)
		resp := postSolve(t, srv.URL, req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", m.name, resp.StatusCode)
		}
	}
}

// Bodies whose every field is in range but whose products overflow: each
// (voltage, TSR) cost of the first, and every time of the second, is
// +Inf, so SolvePoly has no finite candidate. Admission answers 400.
func TestSolveRejectsOverflowingBodies(t *testing.T) {
	_, srv := newTestService(t, Config{Shards: 1, QueueLen: 4})
	rates := `"rates":[0.2,0.1,0.05,0.01,0.001,0]`
	bodies := map[string]string{
		"theta 1e308, n 1e10": `{"tenant":"t","seq":0,"stage":"SimpleALU","theta":1e308,"cores":[{"n":1e10,"cpi_base":1.2,` + rates + `}]}`,
		"n 1e308, cpi 10":     `{"tenant":"t","seq":0,"stage":"SimpleALU","theta":1,"cores":[{"n":1e308,"cpi_base":10,` + rates + `}]}`,
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400; body %s", resp.StatusCode, raw)
			}
		})
	}
}

// A solve that panics answers 500 with a fixed body: the recovered
// panic's stack goes to the daemon's log, never to the client.
func TestSolvePanicAnswersFixed500(t *testing.T) {
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	if err := faults.Enable("task-panic=1", 42); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()
	_, srv := newTestService(t, Config{Shards: 1, QueueLen: 4})
	resp := postSolve(t, srv.URL, validRequest("fft", 0))
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %s", resp.StatusCode, raw)
	}
	if got := strings.TrimSpace(string(raw)); got != "solve failed: internal error" {
		t.Errorf("500 body %q, want the fixed message", got)
	}
	if !strings.Contains(logged.String(), "goroutine ") {
		t.Errorf("the panic's stack was not logged: %q", logged.String())
	}
}

// Implausible (but JSON-representable) curves must not 400: the guard
// band pins those cores to nominal and reports the reason in-band.
func TestGuardFallback(t *testing.T) {
	svc, srv := newTestService(t, Config{Shards: 1, QueueLen: 4})
	req := validRequest("ocean", 0)
	req.Cores[0].Rates = []float64{1.5, 1.5, 1.5, 1.5, 1.5, 1.5} // out of range
	sr := decodeSolve(t, postSolve(t, srv.URL, req))
	c := sr.Cores[0]
	if c.Fallback == "" {
		t.Fatalf("core 0 should have fallen back: %+v", c)
	}
	if c.VIdx != 0 || c.RIdx != len(svc.tsrs)-1 {
		t.Errorf("fallback core not pinned to nominal: %+v", c)
	}
	if sr.Cores[1].Fallback != "" {
		t.Errorf("healthy core 1 fell back: %+v", sr.Cores[1])
	}
}

// A repeated payload under a new seq must be served from the warm-start
// cache with an identical solve and the X-Synts-Warm marker.
func TestWarmStartRepeat(t *testing.T) {
	_, srv := newTestService(t, Config{Shards: 2, QueueLen: 8})
	first := validRequest("radix", 0)
	r1 := postSolve(t, srv.URL, first)
	if r1.Header.Get(HeaderWarm) != "" {
		t.Errorf("first request claims a warm hit")
	}
	s1 := decodeSolve(t, r1)

	repeat := validRequest("radix", 1) // same payload, next interval
	r2 := postSolve(t, srv.URL, repeat)
	if r2.Header.Get(HeaderWarm) != "1" {
		t.Errorf("repeat missing %s header", HeaderWarm)
	}
	s2 := decodeSolve(t, r2)
	if s2.Seq != 1 || s2.ID == s1.ID {
		t.Errorf("warm response did not get its own envelope: %+v vs %+v", s1, s2)
	}
	b1, _ := json.Marshal(s1.Cores)
	b2, _ := json.Marshal(s2.Cores)
	if !bytes.Equal(b1, b2) || s1.Energy != s2.Energy || s1.TExec != s2.TExec {
		t.Errorf("warm solve differs from original")
	}
}

// Concurrent copies of one payload are not coalesced: each solves on its
// own and answers the same bytes, the warm cache keeps one entry, and
// the ledger records every request. The only worker is held until every
// copy is queued, so none of them can be a warm hit.
func TestConcurrentCopiesOfOnePayload(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	const n = 8
	svc, srv := newTestService(t, Config{Shards: 1, QueueLen: n})

	block := make(chan struct{})
	running := make(chan struct{})
	busy := &job{run: func() *solveResult { close(running); <-block; return nil }, done: make(chan struct{})}
	svc.jobs <- busy
	<-running

	req := validRequest("lu", 4)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		status int
		warm   string
		body   []byte
	}
	answers := make(chan answer, n)
	for range n {
		go func() {
			resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				answers <- answer{}
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
			answers <- answer{resp.StatusCode, resp.Header.Get(HeaderWarm), raw}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); len(svc.jobs) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(block)
			t.Fatalf("%d of %d copies queued", len(svc.jobs), n)
		}
	}
	close(block)

	var first []byte
	for i := range n {
		a := <-answers
		if a.status != http.StatusOK {
			t.Fatalf("copy %d: status %d, body %s", i, a.status, a.body)
		}
		if a.warm != "" {
			t.Errorf("copy %d answered warm, but every copy was queued before any solved", i)
		}
		if first == nil {
			first = a.body
		} else if !bytes.Equal(a.body, first) {
			t.Errorf("copy %d body differs:\n%s\nvs\n%s", i, a.body, first)
		}
	}
	svc.warm.mu.Lock()
	entries := len(svc.warm.m)
	svc.warm.mu.Unlock()
	if entries != 1 {
		t.Errorf("%d warm entries, want 1", entries)
	}
	// Each answer records one estimate per (core, rate), one decision per
	// core and one barrier.
	perRequest := len(req.Cores)*(len(req.Cores[0].Rates)+1) + 1
	events := telemetry.Events()
	barriers := 0
	for _, e := range events {
		if e.Kind == telemetry.KindBarrier {
			barriers++
		}
	}
	if barriers != n || len(events) != n*perRequest {
		t.Errorf("ledger holds %d events with %d barriers, want %d with %d", len(events), barriers, n*perRequest, n)
	}
}

// Queue-full shedding, deterministically: both workers are occupied and
// the queue's Shards × QueueLen slots filled by test-injected jobs, so the
// next request must shed with 429, the reason header, and a shed ledger
// event.
func TestQueueFullSheds(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	const shards, queueLen = 2, 1
	svc, srv := newTestService(t, Config{Shards: shards, QueueLen: queueLen})

	block := make(chan struct{})
	var jobs []*job
	for range shards {
		running := make(chan struct{})
		busy := &job{run: func() *solveResult { close(running); <-block; return nil }, done: make(chan struct{})}
		svc.jobs <- busy
		<-running // a worker is now blocked inside busy
		jobs = append(jobs, busy)
	}
	for i := range shards * queueLen {
		filler := &job{run: func() *solveResult { return nil }, done: make(chan struct{})}
		select {
		case svc.jobs <- filler:
		default:
			close(block)
			t.Fatalf("queue full after %d fillers, want room for %d", i, shards*queueLen)
		}
		jobs = append(jobs, filler)
	}

	resp := postSolve(t, srv.URL, validRequest("cholesky", 2))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	close(block)
	for _, jb := range jobs {
		<-jb.done
	}

	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderShedReason); got != ShedQueueFull {
		t.Errorf("%s = %q, want %q", HeaderShedReason, got, ShedQueueFull)
	}
	found := false
	for _, e := range telemetry.Events() {
		if e.Kind == telemetry.KindShed && e.Reason == ShedQueueFull && e.Bench == "cholesky" {
			if err := e.Validate(); err != nil {
				t.Errorf("shed event invalid: %v", err)
			}
			found = true
		}
	}
	if !found {
		t.Errorf("no queue-full shed event in the ledger")
	}
}

// The drain regression: an in-flight request must complete with 200 while
// a post-drain request gets 503 draining, and /readyz flips.
func TestDrainCompletesInFlight(t *testing.T) {
	svc, srv := newTestService(t, Config{Shards: 1, QueueLen: 4})
	req := validRequest("fmm", 0)

	// Occupy the only worker so the request is provably in flight (its
	// job enqueued behind the blocker) when Drain begins.
	block := make(chan struct{})
	running := make(chan struct{})
	busy := &job{run: func() *solveResult { close(running); <-block; return nil }, done: make(chan struct{})}
	svc.jobs <- busy
	<-running

	inflightDone := make(chan *http.Response, 1)
	go func() {
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			close(inflightDone)
			return
		}
		inflightDone <- resp
	}()
	// Wait until the request's job sits in the queue: it has been
	// admitted and is blocked behind the busy worker.
	deadline := time.Now().Add(5 * time.Second)
	for len(svc.jobs) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan struct{})
	go func() { svc.Drain(); close(drained) }()

	// Drain must flip /readyz before it completes.
	for {
		hr, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
		if hr.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a request was still in flight")
	default:
	}

	// New work is refused with the draining reason.
	late := postSolve(t, srv.URL, validRequest("fmm", 1))
	io.Copy(io.Discard, late.Body)
	late.Body.Close()
	if late.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain status %d, want 503", late.StatusCode)
	}
	if got := late.Header.Get(HeaderShedReason); got != ShedDraining {
		t.Errorf("post-drain %s = %q, want %q", HeaderShedReason, got, ShedDraining)
	}

	// The in-flight request still completes successfully.
	close(block)
	resp := <-inflightDone
	if resp == nil {
		t.Fatal("in-flight request failed")
	}
	sr := decodeSolve(t, resp)
	if sr.Tenant != "fmm" || len(sr.Cores) != len(req.Cores) {
		t.Errorf("in-flight request got a mangled solve: %+v", sr)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the in-flight request completed")
	}
}

// The req-slow chaos class delays at the request layer: the request
// still succeeds.
func TestChaosRequestClasses(t *testing.T) {
	// req-slow pays its penalty on the solver worker, so the request still
	// succeeds — just no faster than ReqSlowDuration end to end.
	t.Run("req-slow", func(t *testing.T) {
		if err := faults.Enable("req-slow=1", 42); err != nil {
			t.Fatal(err)
		}
		defer faults.Disable()

		_, srv := newTestService(t, Config{Shards: 1, QueueLen: 4})
		start := time.Now()
		resp := postSolve(t, srv.URL, validRequest("raytrace", 5))
		elapsed := time.Since(start)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()

		if resp.StatusCode != http.StatusOK {
			t.Errorf("slowed request status %d, want 200", resp.StatusCode)
		}
		if elapsed < faults.ReqSlowDuration {
			t.Errorf("req-slow=1 request finished in %v, want >= %v", elapsed, faults.ReqSlowDuration)
		}
	})
}

// Satellite: a seeded stream replayed against a 1-worker and a 4-worker
// instance must produce byte-identical response bodies and an identical
// canonical-order event ledger.
func TestDeterminismAcrossShardCounts(t *testing.T) {
	stream := GenStream(GenOptions{Seed: 99}, 40)

	run := func(shards int) ([][]byte, []byte) {
		telemetry.Enable()
		defer telemetry.Disable()
		_, srv := newTestService(t, Config{Shards: shards, QueueLen: 64})
		bodies := make([][]byte, 0, len(stream))
		for i := range stream {
			resp := postSolve(t, srv.URL, &stream[i])
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("shards=%d request %d: status %d err %v", shards, i, resp.StatusCode, err)
			}
			bodies = append(bodies, raw)
		}
		var ledger bytes.Buffer
		if err := telemetry.WriteJSONL(&ledger, telemetry.Events()); err != nil {
			t.Fatalf("shards=%d: write ledger: %v", shards, err)
		}
		return bodies, ledger.Bytes()
	}

	bodies1, ledger1 := run(1)
	bodies4, ledger4 := run(4)
	for i := range bodies1 {
		if !bytes.Equal(bodies1[i], bodies4[i]) {
			t.Fatalf("response %d differs between -j 1 and -j 4:\n%s\nvs\n%s", i, bodies1[i], bodies4[i])
		}
	}
	if !bytes.Equal(ledger1, ledger4) {
		t.Errorf("canonical ledgers differ between worker counts (%d vs %d bytes)", len(ledger1), len(ledger4))
	}
	if len(ledger1) == 0 {
		t.Errorf("empty ledger")
	}
}

// A fleet request is recorded once: with the registry on and tracing off,
// requests through the handler and through a router in front of it add no
// histogram name of their own — the RED counters and the named latency
// histograms carry them — so the daemon's registry stays flat however
// long it serves.
func TestSpanStoreStaysFlat(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	_, srv := newTestService(t, Config{Shards: 2, QueueLen: 16})
	rt, err := fleet.NewRouter(fleet.RouterConfig{Backends: []string{srv.URL}, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	rt.Register(mux)
	front := httptest.NewServer(mux)
	defer front.Close()
	rt.Start()
	defer rt.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Healthy() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("router never saw its backend ready")
		}
		time.Sleep(5 * time.Millisecond)
	}

	const n = 8
	stream := GenStream(GenOptions{Seed: 7, RepeatFrac: -1}, 2*n)
	for i := range stream {
		url := srv.URL
		if i >= n {
			url = front.URL
		}
		decodeSolve(t, postSolve(t, url, &stream[i]))
	}

	snap := obs.Default().Snapshot()
	var hists []string
	for name := range snap.Histograms {
		hists = append(hists, name)
	}
	sort.Strings(hists)
	if want := []string{"pool.worker_busy_ns", "route.backend.b0.latency_ns", "service.latency_ns"}; !slices.Equal(hists, want) {
		t.Errorf("requests recorded histograms %v, want only %v", hists, want)
	}
	for name, want := range map[string]int64{
		"service.requests":     2 * n,
		"route.requests":       n,
		"pool.tasks.completed": 2 * n,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Histograms["service.latency_ns"].Count; got != 2*n {
		t.Errorf("service.latency_ns count %d, want %d", got, 2*n)
	}
}

func TestGenStreamDeterministicAndValid(t *testing.T) {
	a := GenStream(GenOptions{Seed: 5}, 100)
	b := GenStream(GenOptions{Seed: 5}, 100)
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("stream lengths %d/%d", len(a), len(b))
	}
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if !bytes.Equal(ab, bb) {
		t.Fatal("same seed produced different streams")
	}
	c := GenStream(GenOptions{Seed: 6}, 100)
	cb, _ := json.Marshal(c)
	if bytes.Equal(ab, cb) {
		t.Fatal("different seeds produced identical streams")
	}
	svc, _ := newTestService(t, Config{})
	repeated := 0
	seen := map[uint64]bool{}
	for i := range a {
		if err := a[i].validate(svc.stages); err != nil {
			t.Fatalf("generated request %d invalid: %v", i, err)
		}
		key := payloadDigest(&a[i])
		if seen[key] {
			repeated++
		}
		seen[key] = true
	}
	if repeated == 0 {
		t.Errorf("stream has no repeated payloads; the warm path is never exercised")
	}
}
