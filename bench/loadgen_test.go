package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"synts/internal/fleet"
)

// TestOpenLoopChargesStallToQueuedRequests is the coordinated-omission
// guard: a server that stalls once for 50 ms must show up in the latency of
// every request that was due during the stall, and the requests neither
// caller could send on time must report that they were sent late.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const n, stallAt, stall = 80, 20, 50 * time.Millisecond
	var mu sync.Mutex // held through the stall, so every request waits on it
	var stallStart, stallEnd time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		i, _ := strconv.Atoi(string(b))
		mu.Lock()
		defer mu.Unlock()
		if i == stallAt {
			stallStart = time.Now()
			time.Sleep(stall)
			stallEnd = time.Now()
		}
	}))
	defer srv.Close()
	cl, tr, err := newClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.CloseIdleConnections()
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = []byte(strconv.Itoa(i))
	}

	calls, _ := drive(clientSender(cl), bodies, callers, 500)

	mu.Lock()
	start, end := stallStart, stallEnd
	mu.Unlock()
	if end.IsZero() {
		t.Fatal("the stall never happened")
	}
	queued := 0
	for i := range calls {
		c := &calls[i]
		if !c.ok() {
			t.Fatalf("request %d failed: %+v", i, c)
		}
		if !c.due.After(start) || !c.due.Before(end) {
			continue
		}
		if wait := end.Sub(c.due); c.latency() < wait {
			t.Errorf("request %d due %v into the stall: latency %v, want at least its wait %v",
				i, c.due.Sub(start), c.latency(), wait)
		}
		// Both callers are stuck from request stallAt+1 on, so later
		// requests due before the stall ends leave the generator late.
		if i > stallAt+1 && c.due.Before(end.Add(-time.Millisecond)) {
			queued++
			if c.late() <= 0 {
				t.Errorf("request %d queued behind the stall reports lateness %v", i, c.late())
			}
		}
	}
	if queued < 10 {
		t.Errorf("only %d requests queued behind a %v stall at 500 rps", queued, stall)
	}
}

// The traced replay's hop self times are fleet.Client's Breakdown
// components, with the shard queue split out of the daemon's own time, and
// only even-numbered requests are traced.
func TestTracedHopsFollowClientBreakdown(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set(fleet.HeaderRouteNs, "900000")
		h.Set(fleet.HeaderServerNs, "700000")
		h.Set(fleet.HeaderQueueNs, "100000")
		h.Set(fleet.HeaderSolveNs, "400000")
		time.Sleep(2 * time.Millisecond) // longer than every hop it reports
	}))
	defer srv.Close()
	cl, tr, err := newClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.CloseIdleConnections()
	rec := newRecorder()
	calls, _ := drive(tracedSender(rec, cl, 0, true), make([][]byte, 6), 1, 0)
	for i := range calls {
		if !calls[i].ok() {
			t.Fatalf("request %d failed: %+v", i, calls[i])
		}
	}

	spans := rec.snapshot()
	m := metrics{}
	hopMetrics(spans, m)
	if got := m["hop.client_net_us.p50"]; got.Samples != 3 {
		t.Errorf("%d traced requests, want 3 of 6", got.Samples)
	}
	for name, want := range map[string]float64{
		"hop.router_us.p50":      200,
		"hop.daemon_self_us.p50": 200,
		"hop.queue_us.p50":       100,
		"hop.solve_us.p50":       400,
	} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %v µs, want %v", name, got, want)
		}
	}
	if got := m["hop.client_net_us.p50"].Value; got < 1000 {
		t.Errorf("client and network self time %v µs, want the rest of a 2 ms call", got)
	}
}
