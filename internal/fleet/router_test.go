package fleet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"synts/internal/telemetry"
)

// testBackend is one fake daemon: /readyz + /v1/solve with a pluggable
// solve handler and request counting.
type testBackend struct {
	srv   *httptest.Server
	ready atomic.Bool
	solve atomic.Value // http.HandlerFunc
	hits  atomic.Int32
}

func newTestBackend(t *testing.T) *testBackend {
	t.Helper()
	b := &testBackend{}
	b.ready.Store(true)
	b.solve.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Write([]byte(`{"echo":` + strconv.Quote(string(body)) + `}`))
	}))
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !b.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc(SolvePath, func(w http.ResponseWriter, r *http.Request) {
		b.hits.Add(1)
		b.solve.Load().(http.HandlerFunc)(w, r)
	})
	b.srv = httptest.NewServer(mux)
	t.Cleanup(b.srv.Close)
	return b
}

// newTestRouter wires a router over the given backends with one probe
// cycle already run (no background loop, so tests control time).
func newTestRouter(t *testing.T, backends []*testBackend, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, b.srv.URL)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.probeAll()
	mux := http.NewServeMux()
	rt.Register(mux)
	front := httptest.NewServer(mux)
	t.Cleanup(front.Close)
	return rt, front
}

func postSolve(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+SolvePath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	return resp
}

// The router proxies a request to exactly one backend and stamps which.
func TestRouterProxies(t *testing.T) {
	backends := []*testBackend{newTestBackend(t), newTestBackend(t), newTestBackend(t)}
	rt, front := newTestRouter(t, backends, RouterConfig{})
	if got := rt.Healthy(); got != 3 {
		t.Fatalf("healthy = %d, want 3", got)
	}
	body := `{"id":"p1"}`
	resp := postSolve(t, front.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	idx, err := strconv.Atoi(resp.Header.Get(HeaderBackend))
	if err != nil || idx < 0 || idx >= 3 {
		t.Fatalf("backend header %q", resp.Header.Get(HeaderBackend))
	}
	if resp.Header.Get(HeaderFailover) != "" {
		t.Fatalf("failover header on a healthy fleet")
	}
	total := int32(0)
	for _, b := range backends {
		total += b.hits.Load()
	}
	if total != 1 || backends[idx].hits.Load() != 1 {
		t.Fatalf("hits: total %d, stamped backend %d", total, backends[idx].hits.Load())
	}
	payload, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(payload), "p1") {
		t.Fatalf("body %q not passed through", payload)
	}
}

// Identical bodies always land on the same backend; the full plan over a
// request stream is identical across routers.
func TestRouterDeterministicPlacement(t *testing.T) {
	backends := []*testBackend{newTestBackend(t), newTestBackend(t), newTestBackend(t)}
	rt, _ := newTestRouter(t, backends, RouterConfig{})
	var bodies [][]byte
	for i := 0; i < 200; i++ {
		bodies = append(bodies, []byte(fmt.Sprintf(`{"id":"req-%d"}`, i)))
	}
	plan1 := rt.Plan(bodies)
	rt2, err := NewRouter(RouterConfig{Backends: rt.cfg.Backends})
	if err != nil {
		t.Fatal(err)
	}
	plan2 := rt2.Plan(bodies)
	for i := range plan1 {
		if plan1[i] != plan2[i] {
			t.Fatalf("request %d: plans disagree (%d vs %d)", i, plan1[i], plan2[i])
		}
	}
}

// A dead backend (connection refused — its server is closed) loses the
// request to the next hop; the router stamps the failover, charges the
// breaker, and writes failover events to the ledger.
func TestRouterFailover(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	backends := []*testBackend{newTestBackend(t), newTestBackend(t), newTestBackend(t)}
	rt, front := newTestRouter(t, backends, RouterConfig{})

	// Find a body that routes to backend 0 first, then kill backend 0's
	// solve endpoint (readiness stays green: the probe loop hasn't seen
	// the death yet — exactly the mid-stream SIGKILL window).
	var body string
	for i := 0; ; i++ {
		b := fmt.Sprintf(`{"id":"kill-%d"}`, i)
		if rt.ring.Seq(BodyDigest([]byte(b)))[0] == 0 {
			body = b
			break
		}
	}
	backends[0].solve.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "dying", http.StatusInternalServerError)
	}))

	resp := postSolve(t, front.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want failover success", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderFailover); got != "1" {
		t.Fatalf("failover header %q, want 1", got)
	}
	if idx, _ := strconv.Atoi(resp.Header.Get(HeaderBackend)); idx == 0 {
		t.Fatal("request served by the dead backend")
	}
	events := telemetry.Events()
	nFail := 0
	for _, e := range events {
		if e.Kind == telemetry.KindFailover {
			nFail++
			if e.Solver != RouterSolverName || e.Reason == "" || e.Core != -1 {
				t.Fatalf("malformed failover event %+v", e)
			}
			if err := e.Validate(); err != nil {
				t.Fatalf("failover event invalid: %v", err)
			}
		}
	}
	if nFail != 1 {
		t.Fatalf("failover events = %d, want 1", nFail)
	}
}

// Enough consecutive failures trip the backend's breaker: the router
// stops sending traffic there and the ledger shows the transition.
func TestRouterBreakerTripsAndRecovers(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	backends := []*testBackend{newTestBackend(t), newTestBackend(t)}
	rt, front := newTestRouter(t, backends, RouterConfig{
		Breaker: BreakerConfig{Failures: 2, Cooldown: 50 * time.Millisecond},
	})
	body := `{"id":"trip"}`
	first := rt.ring.Seq(BodyDigest([]byte(body)))[0]
	backends[first].solve.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "dying", http.StatusInternalServerError)
	}))
	// Two failing requests trip the breaker (each request fails over and
	// still succeeds on the survivor).
	for i := 0; i < 2; i++ {
		resp := postSolve(t, front.URL, body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if got := rt.backends[first].breaker.State(); got != BreakerOpen {
		t.Fatalf("breaker %s after 2 failures, want open", got)
	}
	// While open, the dead backend sees no traffic at all.
	seen := backends[first].hits.Load()
	resp := postSolve(t, front.URL, body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if backends[first].hits.Load() != seen {
		t.Fatal("open breaker did not stop traffic")
	}
	// Heal the backend, let the cooldown elapse: the half-open probe
	// closes the breaker again.
	backends[first].solve.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	time.Sleep(60 * time.Millisecond)
	resp = postSolve(t, front.URL, body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := rt.backends[first].breaker.State(); got != BreakerClosed {
		t.Fatalf("breaker %s after healed probe, want closed", got)
	}
	wantSeq := []string{"open:consecutive-failures", "half-open:cooldown", "closed:probe-ok"}
	var gotSeq []string
	for _, e := range telemetry.Events() {
		if e.Kind == telemetry.KindBreaker && e.Bench == rt.backends[first].name {
			gotSeq = append(gotSeq, e.Reason)
			if err := e.Validate(); err != nil {
				t.Fatalf("breaker event invalid: %v", err)
			}
		}
	}
	if len(gotSeq) != len(wantSeq) {
		t.Fatalf("breaker events %v, want %v", gotSeq, wantSeq)
	}
	for i := range gotSeq {
		if gotSeq[i] != wantSeq[i] {
			t.Fatalf("breaker event %d = %q, want %q", i, gotSeq[i], wantSeq[i])
		}
	}
}

// An unready backend is routed around; when no backend is ready the
// router sheds with an explicit reason instead of erroring.
func TestRouterReadinessAndShed(t *testing.T) {
	backends := []*testBackend{newTestBackend(t), newTestBackend(t)}
	rt, front := newTestRouter(t, backends, RouterConfig{})

	backends[0].ready.Store(false)
	rt.probeAll()
	if got := rt.Healthy(); got != 1 {
		t.Fatalf("healthy = %d, want 1", got)
	}
	resp := postSolve(t, front.URL, `{"id":"u1"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with one ready backend", resp.StatusCode)
	}
	if idx, _ := strconv.Atoi(resp.Header.Get(HeaderBackend)); idx != 1 {
		t.Fatalf("served by backend %d, want the ready one (1)", idx)
	}

	backends[1].ready.Store(false)
	rt.probeAll()
	resp = postSolve(t, front.URL, `{"id":"u2"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with no ready backends, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderShedReason); got != ReasonNoBackends {
		t.Fatalf("shed reason %q, want %q", got, ReasonNoBackends)
	}

	// /readyz mirrors fleet health.
	rr, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz %d with dead fleet, want 503", rr.StatusCode)
	}
}

// The backend passing through a shed (e.g. queue-full 429) is not a
// failover: the router relays it untouched.
func TestRouterShedPassthrough(t *testing.T) {
	backends := []*testBackend{newTestBackend(t)}
	backends[0].solve.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderShedReason, "queue-full")
		http.Error(w, "shed", http.StatusTooManyRequests)
	}))
	rt, front := newTestRouter(t, backends, RouterConfig{})
	resp := postSolve(t, front.URL, `{"id":"s1"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the backend's 429 relayed", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderShedReason); got != "queue-full" {
		t.Fatalf("shed reason %q lost in relay", got)
	}
	if got := rt.backends[0].breaker.State(); got != BreakerClosed {
		t.Fatalf("breaker %s: sheds are not failures", got)
	}
}
