package fleet

import (
	"net/http"
	"strconv"

	"synts/internal/obs"
)

// Trace-context and server-timing wire headers. The trace headers
// propagate distributed-trace context hop by hop (client → router →
// daemon); the *-Ns timing headers flow back on every response so the
// client can decompose end-to-end latency into per-hop components
// without tracing enabled — which is what keeps `-trace-dir` provably
// inert: turning tracing on adds artifacts and the three trace headers,
// never a different code path for the breakdown itself.
const (
	// HeaderTrace carries the 16-hex deterministic trace ID (the FNV-1a
	// digest of the request body, unique per request in a seeded stream).
	HeaderTrace = "X-Synts-Trace"
	// HeaderParentSpan carries the 16-hex span ID of the upstream hop
	// (the client attempt or router hop that issued this request).
	HeaderParentSpan = "X-Synts-Parent-Span"
	// HeaderHop says how the request reached this process: first, retry
	// or failover.
	HeaderHop = "X-Synts-Hop"

	// HeaderServerNs is the daemon's total handling time in nanoseconds.
	HeaderServerNs = "X-Synts-Server-Ns"
	// HeaderQueueNs is the time the solve waited in the daemon's queue.
	HeaderQueueNs = "X-Synts-Queue-Ns"
	// HeaderSolveNs is the solver worker's solve time.
	HeaderSolveNs = "X-Synts-Solve-Ns"
	// HeaderRouteNs is the router's total handling time (network to the
	// backend plus ring-walk overhead is HeaderRouteNs − HeaderServerNs).
	HeaderRouteNs = "X-Synts-Route-Ns"
)

// TraceCtx is parsed incoming trace context. The zero value (Trace == 0)
// means the request carried none — traces originate only at a client
// that injects headers, so a daemon with -trace-dir on but untraced
// callers records nothing and its ledgers stay byte-identical.
type TraceCtx struct {
	Trace  uint64
	Parent uint64
	Hop    string
}

// Valid reports whether the request carried trace context.
func (tc TraceCtx) Valid() bool { return tc.Trace != 0 }

// TraceHex renders the trace ID in wire/artifact form ("" when invalid).
func (tc TraceCtx) TraceHex() string {
	if !tc.Valid() {
		return ""
	}
	return obs.TraceHex(tc.Trace)
}

// ParseTraceHeaders extracts trace context from request headers. A
// malformed or absent trace ID yields the zero (invalid) context; an
// unknown hop kind degrades to "first" so a skewed peer cannot poison
// artifact validation downstream.
func ParseTraceHeaders(h http.Header) TraceCtx {
	raw := h.Get(HeaderTrace)
	if raw == "" {
		return TraceCtx{}
	}
	trace, err := strconv.ParseUint(raw, 16, 64)
	if err != nil || trace == 0 {
		return TraceCtx{}
	}
	tc := TraceCtx{Trace: trace, Hop: obs.HopFirst}
	if p := h.Get(HeaderParentSpan); p != "" {
		if parent, err := strconv.ParseUint(p, 16, 64); err == nil {
			tc.Parent = parent
		}
	}
	switch hop := h.Get(HeaderHop); hop {
	case obs.HopFirst, obs.HopRetry, obs.HopFailover:
		tc.Hop = hop
	}
	return tc
}

// SetTraceHeaders stamps outgoing trace context on a request.
func SetTraceHeaders(h http.Header, trace, span uint64, hop string) {
	h.Set(HeaderTrace, obs.TraceHex(trace))
	h.Set(HeaderParentSpan, obs.TraceHex(span))
	h.Set(HeaderHop, hop)
}

// headerNs parses one *-Ns timing header (0 when absent or malformed).
func headerNs(h http.Header, name string) int64 {
	raw := h.Get(name)
	if raw == "" {
		return 0
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || v < 0 {
		return 0
	}
	return v
}
