package service

import (
	"bytes"
	"math"
	"testing"
	"time"

	"synts/internal/obs"
	"synts/internal/sched"
	"synts/internal/telemetry"
)

// tracedLoad runs one traced load with the span collector on and returns
// the report plus every span recorded (client and daemon share the test
// process, so one collector sees both sides of every hop).
func tracedLoad(t *testing.T, url string, seed int64) (*LoadReport, []obs.TraceSpan) {
	t.Helper()
	obs.TraceEnable("testproc")
	defer obs.TraceDisable()
	rep, err := RunLoad(LoadOptions{
		URL:      url,
		RPS:      100,
		Duration: 300 * time.Millisecond,
		// Repeats would map two logical requests onto one body digest
		// (same trace ID, duplicate root span); the determinism and
		// stitching contracts are scoped to repeat-free streams.
		Gen:   GenOptions{Seed: seed, RepeatFrac: -1},
		SLO:   SLO{MaxErrorFrac: 0},
		Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spans, dropped := obs.TraceSpans()
	if dropped != 0 {
		t.Fatalf("%d trace spans dropped", dropped)
	}
	return rep, spans
}

// The tentpole end to end in one process: a traced seeded load against a
// live daemon yields spans on both sides of the HTTP hop that stitch into
// exactly one tree per logical request — no orphans — each with one solve
// span, and the report's hop breakdown attributes
// real solve time.
func TestTracedLoadStitchesOneTreePerRequest(t *testing.T) {
	_, srv := newTestService(t, Config{Shards: 2, QueueLen: 32})
	rep, spans := tracedLoad(t, srv.URL, 21)
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v\n%+v", err, rep)
	}
	if rep.OK != rep.Requests || rep.OK == 0 {
		t.Fatalf("traced healthy run not clean: %+v", rep)
	}

	for _, sp := range spans {
		if err := sp.Validate(); err != nil {
			t.Fatalf("recorded span invalid: %v (%+v)", err, sp)
		}
	}
	res := sched.Stitch(spans)
	if len(res.Trees) != rep.Requests || res.Orphans != 0 {
		t.Fatalf("stitched %d trees with %d orphans from %d requests",
			len(res.Trees), res.Orphans, rep.Requests)
	}
	for _, tree := range res.Trees {
		solves := 0
		var walk func(n *sched.TraceNode)
		walk = func(n *sched.TraceNode) {
			if n.Span.Name == obs.TSServiceSolve {
				solves++
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(tree.Root)
		if solves != 1 {
			t.Fatalf("trace %s: %d solve spans, want exactly 1", tree.Root.Span.Trace, solves)
		}
		if tree.Comp.SolveNs <= 0 {
			t.Fatalf("trace %s: no solve time attributed: %+v",
				tree.Root.Span.Trace, tree.Comp)
		}
	}
	// The daemon really reported its timing headers: the report's tail
	// attribution carries solve time, and the serial envelope held (the
	// report validated above, which includes the obscheck -load gate).
	if rep.HopBreakdown.P99.SolveMs <= 0 {
		t.Errorf("p99 attribution has no solve component: %+v", rep.HopBreakdown.P99)
	}
}

// Same seed, same stream, fresh daemon → byte-identical trace structure.
// TraceCanon projects away timing, so this holds on real (jittery) runs.
// Each run gets its own service: replaying the stream against the first
// run's daemon would hit its warm cache and legitimately change the span
// structure (warm followers skip queue/solve).
func TestTracedLoadCanonDeterminism(t *testing.T) {
	_, srvA := newTestService(t, Config{Shards: 2, QueueLen: 32})
	_, spansA := tracedLoad(t, srvA.URL, 33)
	_, srvB := newTestService(t, Config{Shards: 2, QueueLen: 32})
	_, spansB := tracedLoad(t, srvB.URL, 33)
	if len(spansA) == 0 {
		t.Fatal("no spans recorded")
	}
	// The two httptest servers listen on different ephemeral ports; a
	// deployed fleet has stable backend addresses, so the port is the one
	// field this harness must neutralise before comparing.
	clearBackends(spansA)
	clearBackends(spansB)
	if !bytes.Equal(obs.TraceCanon(spansA), obs.TraceCanon(spansB)) {
		t.Fatal("same-seed runs produced structurally different traces")
	}
}

func clearBackends(spans []obs.TraceSpan) {
	for i := range spans {
		spans[i].Backend = ""
	}
}

// Tracing off is inert server-side too: with the daemon's collector
// enabled but an untraced client, no request carries context, so the
// daemon records nothing — its artifacts and ledgers cannot drift just
// because -trace-dir was set.
func TestUntracedClientRecordsNoDaemonSpans(t *testing.T) {
	_, srv := newTestService(t, Config{Shards: 1, QueueLen: 16})
	obs.TraceEnable("daemon")
	defer obs.TraceDisable()
	rep, err := RunLoad(LoadOptions{
		URL:      srv.URL,
		RPS:      100,
		Duration: 200 * time.Millisecond,
		Gen:      GenOptions{Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 {
		t.Fatalf("untraced run produced no OK requests: %+v", rep)
	}
	if spans, _ := obs.TraceSpans(); len(spans) != 0 {
		t.Fatalf("untraced requests recorded %d daemon spans", len(spans))
	}
}

// Satellite: a shed decision made under trace context lands in the
// ledger with the trace ID, joining the "what happened" ledger to the
// "why was it slow" trace.
func TestTracedShedEventCarriesTraceID(t *testing.T) {
	svc, srv := newTestService(t, Config{Shards: 1, QueueLen: 1})
	svc.Drain()

	telemetry.Enable()
	defer telemetry.Disable()
	rep, spans := tracedLoad(t, srv.URL, 5)
	if rep.Shed != rep.Requests || rep.Shed == 0 {
		t.Fatalf("draining service should shed everything: %+v", rep)
	}

	known := map[string]bool{}
	for _, sp := range spans {
		known[sp.Trace] = true
	}
	sheds := 0
	for _, e := range telemetry.Events() {
		if e.Kind != telemetry.KindShed {
			continue
		}
		sheds++
		if len(e.Trace) != 16 {
			t.Fatalf("shed event trace %q is not 16-hex", e.Trace)
		}
		if !known[e.Trace] {
			t.Fatalf("shed event trace %s matches no recorded span", e.Trace)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("traced shed event invalid: %v", err)
		}
	}
	if sheds == 0 {
		t.Fatal("no shed events in the ledger")
	}
}

// The obscheck -load envelope gate (the fix satellite): per-hop serial
// components summing past the end-to-end quantile must fail validation,
// as must NaN or negative components.
func TestHopQuantileEnvelopeValidation(t *testing.T) {
	good := LoadReport{
		Schema: LoadSchema, Requests: 10, OK: 10,
		DurationMs: 100,
		Latency:    LatencySummary{P50: 1, P95: 2, P99: 3, Max: 4},
	}
	good.HopBreakdown.P99 = HopQuantile{
		TotalMs: 3, ClientQueueMs: 0.5, RetryWaitMs: 0.5, NetworkMs: 0.5,
		RouterMs: 0.5, DaemonQueueMs: 0.5, SolveMs: 0.5,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("tight-but-legal breakdown rejected: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*HopQuantile)
	}{
		{"serial sum exceeds total", func(h *HopQuantile) { h.SolveMs = 0.6 }},
		{"negative component", func(h *HopQuantile) { h.NetworkMs = -0.1 }},
		{"NaN total", func(h *HopQuantile) { h.TotalMs = math.NaN() }},
	}
	for _, b := range bad {
		r := good
		b.mut(&r.HopBreakdown.P99)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validated", b.name)
		}
	}
}
