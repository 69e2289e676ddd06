// Package sched stitches per-process synts-trace/v1 span artifacts
// (loadgen, router, daemons — each on its own monotonic clock) into
// fleet-wide trace trees and attributes tail latency to their hops
// (`synts trace`, `obscheck -trace`). A client sends each attempt after
// the last one ended and the router walks its ring one backend at a time,
// so every span of a tree lies on the request's critical path.
//
// Span IDs are content-derived (obs.TraceDerive), so the parent/child
// edges line up across artifacts without any runtime coordination; only
// the clocks disagree, and those are reconciled by anchoring each
// process's first span inside its parent's send/receive envelope (the
// child cannot have started before the parent sent the request nor ended
// after the parent saw the response — the classic messaging bound on
// distributed clock skew).
package sched

import (
	"math"
	"sort"

	"synts/internal/obs"
)

// TraceNode is one span placed on the stitched, trace-local timeline
// (root starts at 0).
type TraceNode struct {
	Span     obs.TraceSpan
	StartNs  int64 // normalized trace timeline
	EndNs    int64
	Children []*TraceNode
}

// TraceComponents decomposes one stitched trace's end-to-end time into
// the same per-hop buckets the loadgen report uses, but derived purely
// from spans — so comparing the two is a genuine cross-artifact
// reconciliation, not the same numbers copied twice.
type TraceComponents struct {
	TotalNs       int64 `json:"total_ns"`
	ClientQueueNs int64 `json:"client_queue_ns"`
	RetryWaitNs   int64 `json:"retry_wait_ns"`
	NetworkNs     int64 `json:"network_ns"`
	RouterNs      int64 `json:"router_ns"`
	DaemonQueueNs int64 `json:"daemon_queue_ns"`
	SolveNs       int64 `json:"solve_ns"`
}

// TraceTree is one logical request reassembled across processes.
type TraceTree struct {
	Trace string
	Root  *TraceNode
	Spans int // spans reachable from the root
	Comp  TraceComponents
	// FailoverOnPath reports a failover hop (a router ring-walk replay)
	// on the critical path: this request's tail latency is attributable
	// to a recovery, the fleet analogue of the paper's detect-and-replay
	// cost.
	FailoverOnPath bool
	// BreakerSkipOnPath reports that the ring walk stepped over a
	// breaker-open backend.
	BreakerSkipOnPath bool
}

// StitchResult is the outcome of merging span artifacts.
type StitchResult struct {
	Trees []*TraceTree // sorted by trace ID
	Spans int          // spans in
	// Orphans counts spans not reachable from any root: a missing parent,
	// a duplicate span ID, or a trace with no client.request root. Zero on
	// a complete artifact set; obscheck -trace fails otherwise.
	Orphans int
}

// Stitch merges spans (typically the concatenation of several processes'
// artifacts) into per-trace trees.
func Stitch(spans []obs.TraceSpan) *StitchResult {
	res := &StitchResult{Spans: len(spans)}
	byTrace := map[string][]obs.TraceSpan{}
	for _, sp := range spans {
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	traces := make([]string, 0, len(byTrace))
	for t := range byTrace {
		traces = append(traces, t)
	}
	sort.Strings(traces)
	for _, t := range traces {
		group := byTrace[t]
		tree, orphans := stitchOne(t, group)
		res.Orphans += orphans
		if tree != nil {
			res.Trees = append(res.Trees, tree)
		}
	}
	return res
}

// stitchOne assembles one trace's spans into a tree, returning the tree
// (nil when the trace has no root) and its orphan count.
func stitchOne(trace string, group []obs.TraceSpan) (*TraceTree, int) {
	nodes := make(map[string]*TraceNode, len(group))
	orphans := 0
	var root *TraceNode
	for _, sp := range group {
		if _, dup := nodes[sp.Span]; dup {
			orphans++ // duplicate span ID: keep the first, orphan the rest
			continue
		}
		n := &TraceNode{Span: sp}
		nodes[sp.Span] = n
		if sp.Name == obs.TSClientRequest && root == nil {
			root = n
		}
	}
	if root == nil {
		return nil, orphans + len(nodes)
	}
	for _, n := range nodes {
		if n == root {
			continue
		}
		if p := nodes[n.Span.Parent]; p != nil && p != n {
			p.Children = append(p.Children, n)
		}
	}
	for _, n := range nodes {
		sort.Slice(n.Children, func(i, j int) bool {
			a, b := n.Children[i].Span, n.Children[j].Span
			if a.StartNs != b.StartNs {
				return a.StartNs < b.StartNs
			}
			return a.Span < b.Span
		})
	}

	// Normalize clocks: the root's process defines t=0; each other
	// process is anchored the first time the walk crosses into it, by
	// centering that boundary child in the parent's envelope — the skew
	// can place the child anywhere inside [parent start, parent end], and
	// the midpoint splits the residual (network) time symmetrically.
	offsets := map[string]int64{root.Span.Proc: -root.Span.StartNs}
	root.StartNs = 0
	root.EndNs = root.Span.DurNs
	reachable := 1
	var walk func(n, p *TraceNode)
	walk = func(n, p *TraceNode) {
		reachable++
		if off, ok := offsets[n.Span.Proc]; ok {
			n.StartNs = n.Span.StartNs + off
		} else {
			slack := (p.EndNs - p.StartNs) - n.Span.DurNs
			if slack < 0 {
				slack = 0
			}
			n.StartNs = p.StartNs + slack/2
			offsets[n.Span.Proc] = n.StartNs - n.Span.StartNs
		}
		if n.StartNs < p.StartNs {
			n.StartNs = p.StartNs
		}
		n.EndNs = n.StartNs + n.Span.DurNs
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	for _, c := range root.Children {
		walk(c, root)
	}
	orphans += len(nodes) - reachable

	tree := &TraceTree{Trace: trace, Root: root, Spans: reachable}
	attribute(tree)
	return tree, orphans
}

// attribute derives the per-hop decomposition from the tree's spans,
// mirroring the timing-header identity the fleet client uses: solve is the
// solver worker time, daemon queue the rest of the daemon's handling,
// router the route time net of daemon time, network the attempt time net
// of remote time, retry-wait the backoff sleeps and client-queue the
// residue. It also flags the failover hops and breaker-open skips.
func attribute(t *TraceTree) {
	c := TraceComponents{TotalNs: t.Root.Span.DurNs}
	var attemptsWall int64
	var visit func(n *TraceNode)
	visit = func(n *TraceNode) {
		switch {
		case n.Span.Kind == obs.HopFailover:
			t.FailoverOnPath = true
		case n.Span.Kind == obs.HopSkip && n.Span.Detail == "breaker-open":
			t.BreakerSkipOnPath = true
		}
		switch n.Span.Name {
		case obs.TSClientAttempt:
			attemptsWall += n.Span.DurNs
			var remote int64
			for _, ch := range n.Children {
				remote += ch.Span.DurNs
			}
			if d := n.Span.DurNs - remote; d > 0 {
				c.NetworkNs += d
			}
		case obs.TSClientBackoff:
			c.RetryWaitNs += n.Span.DurNs
		case obs.TSRouteRequest:
			var served int64
			for _, hop := range n.Children {
				for _, sc := range hop.Children {
					if sc.Span.Name == obs.TSServiceRequest {
						served += sc.Span.DurNs
					}
				}
			}
			if d := n.Span.DurNs - served; d > 0 {
				c.RouterNs += d
			}
		case obs.TSServiceRequest:
			var solve int64
			for _, ch := range n.Children {
				if ch.Span.Name == obs.TSServiceSolve {
					solve += ch.Span.DurNs
				}
			}
			c.SolveNs += solve
			if d := n.Span.DurNs - solve; d > 0 {
				c.DaemonQueueNs += d
			}
		}
		for _, ch := range n.Children {
			visit(ch)
		}
	}
	visit(t.Root)
	c.ClientQueueNs = c.TotalNs - c.RetryWaitNs - attemptsWall
	if c.ClientQueueNs < 0 {
		c.ClientQueueNs = 0
	}
	t.Comp = c
}

// TraceQuantile is the decomposition of the trace sitting at one
// nearest-rank latency quantile.
type TraceQuantile struct {
	Trace string `json:"trace"`
	TraceComponents
}

// TraceReport aggregates a stitched run for `synts trace` and CI gates.
type TraceReport struct {
	Traces  int `json:"traces"`
	Spans   int `json:"spans"`
	Orphans int `json:"orphans"`

	// FailoverTraces counts traces whose critical path crossed a
	// failover; BreakerSkipTraces those whose serving walk stepped over an
	// open breaker. Both zero on a healthy run.
	FailoverTraces    int `json:"failover_traces"`
	BreakerSkipTraces int `json:"breaker_skip_traces"`

	P50 TraceQuantile `json:"p50"`
	P95 TraceQuantile `json:"p95"`
	P99 TraceQuantile `json:"p99"`

	// DominantP99 names the largest serial component of the p99 trace —
	// the single answer "what is my tail made of".
	DominantP99 string `json:"dominant_p99"`
}

// BuildTraceReport computes the aggregate view of a stitch.
func BuildTraceReport(res *StitchResult) *TraceReport {
	rep := &TraceReport{Traces: len(res.Trees), Spans: res.Spans, Orphans: res.Orphans}
	for _, t := range res.Trees {
		if t.FailoverOnPath {
			rep.FailoverTraces++
		}
		if t.BreakerSkipOnPath {
			rep.BreakerSkipTraces++
		}
	}
	if len(res.Trees) == 0 {
		return rep
	}
	byTotal := append([]*TraceTree(nil), res.Trees...)
	sort.Slice(byTotal, func(i, j int) bool {
		if byTotal[i].Comp.TotalNs != byTotal[j].Comp.TotalNs {
			return byTotal[i].Comp.TotalNs < byTotal[j].Comp.TotalNs
		}
		return byTotal[i].Trace < byTotal[j].Trace
	})
	pick := func(q float64) TraceQuantile {
		i := int(math.Ceil(q*float64(len(byTotal)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(byTotal) {
			i = len(byTotal) - 1
		}
		return TraceQuantile{Trace: byTotal[i].Trace, TraceComponents: byTotal[i].Comp}
	}
	rep.P50, rep.P95, rep.P99 = pick(0.50), pick(0.95), pick(0.99)
	rep.DominantP99 = dominant(rep.P99.TraceComponents)
	return rep
}

// dominant names the largest component (ties resolve to the earliest in
// pipeline order).
func dominant(c TraceComponents) string {
	comps := []struct {
		name string
		v    int64
	}{
		{"client-queue", c.ClientQueueNs},
		{"retry-wait", c.RetryWaitNs},
		{"network", c.NetworkNs},
		{"router", c.RouterNs},
		{"daemon-queue", c.DaemonQueueNs},
		{"solve", c.SolveNs},
	}
	best := comps[0]
	for _, x := range comps[1:] {
		if x.v > best.v {
			best = x
		}
	}
	return best.name
}
