package sched

import (
	"testing"

	"synts/internal/obs"
)

// hx is shorthand for the 16-hex ID form test spans use.
func hx(v uint64) string { return obs.TraceHex(v) }

// solves counts the tree's service.solve spans.
func solves(t *TraceTree) int {
	n := 0
	var rec func(nd *TraceNode)
	rec = func(nd *TraceNode) {
		if nd.Span.Name == obs.TSServiceSolve {
			n++
		}
		for _, c := range nd.Children {
			rec(c)
		}
	}
	rec(t.Root)
	return n
}

// A direct request to one daemon. The daemon's raw clock is wildly offset
// to prove the stitcher anchors child processes instead of trusting their
// epochs, and the decomposition splits the attempt into network, daemon
// queue and solve.
func TestStitchAnchorsSkewedProcess(t *testing.T) {
	spans := []obs.TraceSpan{
		{Trace: hx(1), Span: hx(1), Name: obs.TSClientRequest, Kind: obs.HopRoot, Proc: "lg", Detail: "ok", StartNs: 0, DurNs: 1000},
		{Trace: hx(1), Span: hx(10), Parent: hx(1), Name: obs.TSClientAttempt, Kind: obs.HopFirst, Proc: "lg", Detail: "ok", StartNs: 10, DurNs: 980},
		{Trace: hx(1), Span: hx(20), Parent: hx(10), Name: obs.TSServiceRequest, Kind: obs.HopFirst, Proc: "d1", Detail: "ok", StartNs: 5_000_000, DurNs: 900},
		{Trace: hx(1), Span: hx(21), Parent: hx(20), Name: obs.TSServiceQueue, Kind: obs.HopQueue, Proc: "d1", StartNs: 5_000_010, DurNs: 50},
		{Trace: hx(1), Span: hx(22), Parent: hx(20), Name: obs.TSServiceSolve, Kind: obs.HopSolve, Proc: "d1", StartNs: 5_000_060, DurNs: 800},
	}
	res := Stitch(spans)
	if res.Orphans != 0 || len(res.Trees) != 1 {
		t.Fatalf("trees=%d orphans=%d, want 1/0", len(res.Trees), res.Orphans)
	}
	tree := res.Trees[0]
	if got := solves(tree); got != 1 {
		t.Fatalf("%d solve spans, want exactly 1", got)
	}
	c := tree.Comp
	if c.SolveNs != 800 || c.DaemonQueueNs != 100 {
		t.Errorf("solve=%d daemon-queue=%d, want 800/100", c.SolveNs, c.DaemonQueueNs)
	}
	if c.NetworkNs != 80 {
		t.Errorf("network %d, want 80 (attempt 980 minus remote 900)", c.NetworkNs)
	}
	if c.ClientQueueNs != 20 {
		t.Errorf("client-queue %d, want 20 (total 1000 minus attempt wall 980)", c.ClientQueueNs)
	}
	if tree.FailoverOnPath || tree.BreakerSkipOnPath {
		t.Error("healthy request flagged failover/breaker")
	}
	// Skew anchoring: the daemon subtree must land inside the attempt's
	// envelope on the normalized timeline despite its 5ms raw offset.
	req := tree.Root.Children[0].Children[0]
	if req.StartNs < 10 || req.EndNs > 990 {
		t.Errorf("anchored service.request [%d,%d] escapes attempt [10,990]", req.StartNs, req.EndNs)
	}
	if q := req.Children[0]; q.StartNs != req.StartNs+10 {
		t.Errorf("same-proc child start %d, want parent+10 = %d (offset must be shared)", q.StartNs, req.StartNs+10)
	}
}

// Retried-then-OK on one backend. The backoff sleep is attributed as
// retry-wait exactly once, the failed first attempt counts toward the
// attempt wall time (it delayed the answer), and the solve is not
// double-counted.
func TestStitchRetriedThenOK(t *testing.T) {
	spans := []obs.TraceSpan{
		{Trace: hx(2), Span: hx(2), Name: obs.TSClientRequest, Kind: obs.HopRoot, Proc: "lg", Detail: "ok", StartNs: 0, DurNs: 1000},
		{Trace: hx(2), Span: hx(10), Parent: hx(2), Name: obs.TSClientAttempt, Kind: obs.HopFirst, Proc: "lg", Detail: "status:500", StartNs: 10, DurNs: 200},
		{Trace: hx(2), Span: hx(11), Parent: hx(2), Name: obs.TSClientBackoff, Kind: obs.HopWait, Proc: "lg", StartNs: 210, DurNs: 100},
		{Trace: hx(2), Span: hx(12), Parent: hx(2), Name: obs.TSClientAttempt, Kind: obs.HopRetry, Proc: "lg", Detail: "ok", StartNs: 310, DurNs: 600},
		{Trace: hx(2), Span: hx(20), Parent: hx(12), Name: obs.TSServiceRequest, Kind: obs.HopRetry, Proc: "d1", Detail: "ok", StartNs: 40, DurNs: 550},
		{Trace: hx(2), Span: hx(22), Parent: hx(20), Name: obs.TSServiceSolve, Kind: obs.HopSolve, Proc: "d1", StartNs: 60, DurNs: 500},
	}
	res := Stitch(spans)
	if res.Orphans != 0 || len(res.Trees) != 1 {
		t.Fatalf("trees=%d orphans=%d, want 1/0", len(res.Trees), res.Orphans)
	}
	tree := res.Trees[0]
	c := tree.Comp
	if c.RetryWaitNs != 100 {
		t.Errorf("retry-wait %d, want 100 (one backoff, counted once)", c.RetryWaitNs)
	}
	if got := solves(tree); got != 1 {
		t.Fatalf("%d solve spans, want 1", got)
	}
	if c.SolveNs != 500 {
		t.Errorf("solve %d, want 500 (not double-counted)", c.SolveNs)
	}
	if tree.FailoverOnPath {
		t.Error("same-backend retry flagged as failover")
	}
	if c.ClientQueueNs != 100 {
		t.Errorf("client-queue %d, want 100 (1000 − 100 wait − 800 attempts)", c.ClientQueueNs)
	}
}

// A router ring walk that skips a breaker-open backend, burns an attempt
// on a dead one, and fails over. The stitched tree spans the dead and the
// serving backend, the failover hop and the skip are flagged, and router
// time is the route span net of daemon time.
func TestStitchFailoverAcrossBackends(t *testing.T) {
	spans := []obs.TraceSpan{
		{Trace: hx(3), Span: hx(3), Name: obs.TSClientRequest, Kind: obs.HopRoot, Proc: "lg", Detail: "ok", StartNs: 0, DurNs: 2000},
		{Trace: hx(3), Span: hx(10), Parent: hx(3), Name: obs.TSClientAttempt, Kind: obs.HopFirst, Proc: "lg", Detail: "ok", StartNs: 10, DurNs: 1900},
		{Trace: hx(3), Span: hx(30), Parent: hx(10), Name: obs.TSRouteRequest, Kind: obs.HopFirst, Proc: "rt", Detail: "ok", StartNs: 100, DurNs: 1800},
		{Trace: hx(3), Span: hx(31), Parent: hx(30), Name: obs.TSRouteHop, Kind: obs.HopSkip, Proc: "rt", Backend: "http://b0", Detail: "breaker-open", StartNs: 105, DurNs: 0},
		{Trace: hx(3), Span: hx(32), Parent: hx(30), Name: obs.TSRouteHop, Kind: obs.HopFirst, Proc: "rt", Backend: "http://b1", Detail: "backend-error", StartNs: 110, DurNs: 300},
		{Trace: hx(3), Span: hx(33), Parent: hx(30), Name: obs.TSRouteHop, Kind: obs.HopFailover, Proc: "rt", Backend: "http://b2", Detail: "ok", StartNs: 420, DurNs: 1400},
		{Trace: hx(3), Span: hx(40), Parent: hx(33), Name: obs.TSServiceRequest, Kind: obs.HopFailover, Proc: "d2", Detail: "ok", StartNs: 7, DurNs: 1300},
		{Trace: hx(3), Span: hx(41), Parent: hx(40), Name: obs.TSServiceSolve, Kind: obs.HopSolve, Proc: "d2", StartNs: 20, DurNs: 1000},
	}
	res := Stitch(spans)
	if res.Orphans != 0 || len(res.Trees) != 1 {
		t.Fatalf("trees=%d orphans=%d, want 1/0", len(res.Trees), res.Orphans)
	}
	tree := res.Trees[0]
	if !tree.FailoverOnPath {
		t.Error("failover hop on the serving walk not flagged")
	}
	if !tree.BreakerSkipOnPath {
		t.Error("breaker-open skip on the serving walk not flagged")
	}
	backends := map[string]bool{}
	var rec func(n *TraceNode)
	rec = func(n *TraceNode) {
		if n.Span.Backend != "" {
			backends[n.Span.Backend] = true
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(tree.Root)
	if len(backends) < 2 {
		t.Errorf("tree touches backends %v, want at least the dead and the serving one", backends)
	}
	c := tree.Comp
	if c.RouterNs != 500 {
		t.Errorf("router %d, want 500 (route 1800 minus daemon 1300)", c.RouterNs)
	}
	if c.SolveNs != 1000 || c.DaemonQueueNs != 300 {
		t.Errorf("solve=%d daemon-queue=%d, want 1000/300", c.SolveNs, c.DaemonQueueNs)
	}

	rep := BuildTraceReport(res)
	if rep.FailoverTraces != 1 || rep.BreakerSkipTraces != 1 {
		t.Errorf("report failover=%d breaker-skip=%d, want 1/1", rep.FailoverTraces, rep.BreakerSkipTraces)
	}
	if rep.DominantP99 != "solve" {
		t.Errorf("dominant p99 contributor %q, want solve", rep.DominantP99)
	}
	if rep.P99.Trace != hx(3) {
		t.Errorf("p99 trace %q, want %q", rep.P99.Trace, hx(3))
	}
}

// Orphan accounting: a span with a missing parent and a trace with no
// root both surface as orphans instead of vanishing.
func TestStitchOrphans(t *testing.T) {
	spans := []obs.TraceSpan{
		// Trace 4: complete root + one dangling child.
		{Trace: hx(4), Span: hx(4), Name: obs.TSClientRequest, Kind: obs.HopRoot, Proc: "lg", StartNs: 0, DurNs: 10},
		{Trace: hx(4), Span: hx(10), Parent: hx(99), Name: obs.TSClientAttempt, Kind: obs.HopFirst, Proc: "lg", StartNs: 0, DurNs: 5},
		// Trace 5: no client.request root at all.
		{Trace: hx(5), Span: hx(20), Parent: hx(5), Name: obs.TSServiceRequest, Kind: obs.HopFirst, Proc: "d1", StartNs: 0, DurNs: 5},
	}
	res := Stitch(spans)
	if len(res.Trees) != 1 {
		t.Fatalf("%d trees, want 1 (the rootless trace cannot stitch)", len(res.Trees))
	}
	if res.Orphans != 2 {
		t.Fatalf("orphans = %d, want 2 (dangling child + rootless span)", res.Orphans)
	}
}
