package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"synts/internal/fleet"
	"synts/internal/obs"
	"synts/internal/telemetry"
)

func marshalReq(t *testing.T, r *SolveRequest) io.Reader {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// newTestRouter fronts backends with a started router and waits until
// its first probe cycle has seen every backend ready. With a long
// ProbeInterval that first cycle is the only one, so the router learns
// of a later drain from the drained backend's answer alone.
func newTestRouter(t *testing.T, cfg fleet.RouterConfig) *httptest.Server {
	t.Helper()
	rt, err := fleet.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	rt.Register(mux)
	front := httptest.NewServer(mux)
	rt.Start()
	t.Cleanup(func() {
		front.Close()
		rt.Stop()
	})
	deadline := time.Now().Add(5 * time.Second)
	for rt.Healthy() < len(cfg.Backends) {
		if time.Now().After(deadline) {
			t.Fatal("router never saw every backend ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return front
}

// The drain-during-retry contract, with real daemons behind a router: a
// backend drains after the router's last probe, the router fails the
// request over, the answer comes from the survivor with the failover
// reported to the client — and the ledger holds exactly one set of
// decision events for the request (the drained backend shed before
// solving, so nothing is double-recorded).
func TestDrainDuringRetryFailsOverOnce(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	_, srvA := newTestService(t, Config{Shards: 1, QueueLen: 8})
	svcB, srvB := newTestService(t, Config{Shards: 1, QueueLen: 8})

	urls := []string{srvA.URL, srvB.URL}
	front := newTestRouter(t, fleet.RouterConfig{Backends: urls, ProbeInterval: time.Hour})
	// Find a request whose ring walk starts at the backend we are about
	// to drain (index 1), so the drain is actually in the path.
	var body []byte
	for seq := 0; ; seq++ {
		b, err := json.Marshal(validRequest("drain-test", seq))
		if err != nil {
			t.Fatal(err)
		}
		if fleet.NewRing(urls).Seq(fleet.BodyDigest(b))[0] == 1 {
			body = b
			break
		}
	}
	svcB.Drain()

	c, err := fleet.NewClient(fleet.ClientConfig{URLs: []string{front.URL}, Retries: 2, BackoffBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Do(body)
	if res.Err != nil || res.Status != http.StatusOK {
		t.Fatalf("want failover success around draining backend, got %+v err=%v", res, res.Err)
	}
	if res.Failovers != 1 || res.Retries != 0 {
		t.Fatalf("failovers = %d, retries = %d, want 1/0", res.Failovers, res.Retries)
	}
	if res.Shed != "" {
		t.Fatalf("drain shed %q surfaced though the survivor answered", res.Shed)
	}

	decisions, barriers, sheds := 0, 0, 0
	for _, e := range telemetry.Events() {
		if e.Bench != "drain-test" {
			continue
		}
		switch e.Kind {
		case telemetry.KindDecision:
			decisions++
		case telemetry.KindBarrier:
			barriers++
		case telemetry.KindShed:
			sheds++
		}
	}
	if decisions != 2 || barriers != 1 {
		t.Fatalf("decisions=%d barriers=%d, want 2/1: the solve must be recorded exactly once", decisions, barriers)
	}
	if sheds != 1 {
		t.Fatalf("sheds=%d, want 1 (the drained backend's explicit shed)", sheds)
	}
}

// End-to-end inertness: a loadgen run through the fleet client against
// one healthy daemon reports zero retries and failovers, keeps the
// count identity exact, and passes report validation — PR 8 behaviour,
// bit for bit, when nothing fails.
func TestLoadgenFleetClientInert(t *testing.T) {
	_, srv := newTestService(t, Config{Shards: 2, QueueLen: 32})
	rep, err := RunLoad(LoadOptions{
		URL:      srv.URL,
		RPS:      200,
		Duration: 250 * time.Millisecond,
		Retries:  3,
		Gen:      GenOptions{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Retries != 0 || rep.Failovers != 0 {
		t.Fatalf("resilience counters nonzero on a healthy run: %+v", rep)
	}
	if rep.Errors != 0 || rep.Dropped != 0 {
		t.Fatalf("errors on a healthy run: %+v", rep)
	}
}

// Count identity under failover: with one of two backends behind a
// router draining, every logical request still lands in exactly one
// outcome bucket and the failover counter shows the router's remapping.
func TestLoadgenFailoverCountIdentity(t *testing.T) {
	_, srvA := newTestService(t, Config{Shards: 2, QueueLen: 32})
	svcB, srvB := newTestService(t, Config{Shards: 2, QueueLen: 32})
	front := newTestRouter(t, fleet.RouterConfig{Backends: []string{srvA.URL, srvB.URL}, ProbeInterval: time.Hour})
	svcB.Drain()

	rep, err := RunLoad(LoadOptions{
		URL:      front.URL,
		RPS:      200,
		Duration: 250 * time.Millisecond,
		Retries:  2,
		Gen:      GenOptions{Seed: 13},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Errors != 0 {
		t.Fatalf("non-shed errors despite a live survivor: %+v", rep)
	}
	if rep.Failovers == 0 {
		t.Fatalf("no failovers though one backend drains: %+v", rep)
	}
}

// Bodies whose time, energy or cost overflows answer 400 through a router
// too, and a 400 is the client's fault, not the backend's: after six of
// them no breaker of a two-daemon fleet has opened, and a valid body still
// answers 200. Were the bodies admitted, each would panic the solver into
// a 500 on both daemons, and two would open both breakers.
func TestOverflowingBodiesLeaveBreakersClosed(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	_, srvA := newTestService(t, Config{Shards: 1, QueueLen: 8})
	_, srvB := newTestService(t, Config{Shards: 1, QueueLen: 8})
	front := newTestRouter(t, fleet.RouterConfig{
		Backends:      []string{srvA.URL, srvB.URL},
		ProbeInterval: 10 * time.Millisecond,
		Breaker:       fleet.BreakerConfig{Failures: 2},
	})

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(front.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(raw)
	}
	rates := `"rates":[0.2,0.1,0.05,0.01,0.001,0]`
	for seq := 0; seq < 3; seq++ {
		for _, core := range []string{`"theta":1e308,"cores":[{"n":1e10,"cpi_base":1.2,`, `"theta":1,"cores":[{"n":1e308,"cpi_base":10,`} {
			body := fmt.Sprintf(`{"tenant":"t","seq":%d,"stage":"SimpleALU",%s%s}]}`, seq, core, rates)
			if status, raw := post(body); status != http.StatusBadRequest {
				t.Errorf("seq %d: status %d, want 400; body %s", seq, status, raw)
			}
		}
	}
	snap := obs.Default().Snapshot()
	if n := snap.Counters["route.breaker.open"]; n != 0 {
		t.Errorf("%d breakers opened on overflowing bodies, want 0", n)
	}
	for i := 0; i < 2; i++ {
		if st := snap.Gauges[fmt.Sprintf("route.backend.b%d.breaker_state", i)]; st != float64(fleet.BreakerClosed) {
			t.Errorf("backend %d breaker state %v, want closed", i, fleet.BreakerState(st))
		}
	}
	valid, err := json.Marshal(validRequest("t", 99))
	if err != nil {
		t.Fatal(err)
	}
	if status, raw := post(string(valid)); status != http.StatusOK {
		t.Errorf("valid body after the overflowing ones: status %d, want 200; body %s", status, raw)
	}
}
