package fleet

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"synts/internal/obs"
)

// Set → Parse is the identity for every hop kind the wire admits.
func TestTraceHeadersRoundTrip(t *testing.T) {
	for _, hop := range []string{obs.HopFirst, obs.HopRetry, obs.HopFailover} {
		h := http.Header{}
		SetTraceHeaders(h, 0xdeadbeef, 0x1234, hop)
		tc := ParseTraceHeaders(h)
		if !tc.Valid() || tc.Trace != 0xdeadbeef || tc.Parent != 0x1234 || tc.Hop != hop {
			t.Fatalf("round-trip(%s) = %+v", hop, tc)
		}
		if tc.TraceHex() != obs.TraceHex(0xdeadbeef) {
			t.Fatalf("TraceHex = %q", tc.TraceHex())
		}
	}
}

// Malformed context degrades, never errors: a bad or absent trace ID
// yields the invalid zero context, a bad parent drops to 0, and an
// unknown hop kind falls back to "first" so a skewed peer cannot inject
// vocabulary the artifact validator would reject.
func TestParseTraceHeadersMalformed(t *testing.T) {
	if tc := ParseTraceHeaders(http.Header{}); tc.Valid() || tc.TraceHex() != "" {
		t.Fatalf("absent headers parsed as valid: %+v", tc)
	}
	for name, raw := range map[string]string{
		"non-hex":  "zznothex",
		"zero":     "0",
		"overflow": "10000000000000000",
	} {
		h := http.Header{}
		h.Set(HeaderTrace, raw)
		if tc := ParseTraceHeaders(h); tc.Valid() {
			t.Errorf("%s trace id parsed as valid: %+v", name, tc)
		}
	}
	h := http.Header{}
	h.Set(HeaderTrace, "ff")
	h.Set(HeaderParentSpan, "not-hex")
	h.Set(HeaderHop, "teleport")
	tc := ParseTraceHeaders(h)
	if !tc.Valid() || tc.Parent != 0 || tc.Hop != obs.HopFirst {
		t.Fatalf("malformed parent/hop did not degrade: %+v", tc)
	}
}

// FuzzParseTraceHeaders: every daemon and router request passes its
// headers through ParseTraceHeaders. For any header values it returns
// either the zero context or one with a non-zero trace and a hop kind
// the artifact validator admits, and Set → Parse round-trips any
// non-zero trace, parent and admitted hop kind.
func FuzzParseTraceHeaders(f *testing.F) {
	f.Add("00000000deadbeef", "0000000000001234", obs.HopRetry, uint64(0xdeadbeef), uint64(0x1234), uint8(1))
	f.Add("", "", "", uint64(1), uint64(0), uint8(0))
	f.Add("0", "not-hex", "teleport", uint64(1<<63), uint64(1), uint8(2))
	f.Add("10000000000000000", "-1", obs.HopFailover, ^uint64(0), ^uint64(0), uint8(3))
	f.Add("+ff", "0x10", "hedge", uint64(0xff), uint64(0x10), uint8(7))
	hops := []string{obs.HopFirst, obs.HopRetry, obs.HopFailover}
	f.Fuzz(func(t *testing.T, trace, parent, hop string, id, span uint64, kind uint8) {
		h := http.Header{}
		h.Set(HeaderTrace, trace)
		h.Set(HeaderParentSpan, parent)
		h.Set(HeaderHop, hop)
		tc := ParseTraceHeaders(h)
		if tc != (TraceCtx{}) {
			switch tc.Hop {
			case obs.HopFirst, obs.HopRetry, obs.HopFailover:
			default:
				t.Fatalf("headers %q %q %q parsed to hop kind %q", trace, parent, hop, tc.Hop)
			}
			if tc.Trace == 0 {
				t.Fatalf("headers %q %q %q parsed to a zero trace with context %+v", trace, parent, hop, tc)
			}
		}

		if id == 0 {
			return
		}
		want := TraceCtx{Trace: id, Parent: span, Hop: hops[int(kind)%len(hops)]}
		out := http.Header{}
		SetTraceHeaders(out, want.Trace, want.Parent, want.Hop)
		if got := ParseTraceHeaders(out); got != want {
			t.Fatalf("round-trip of %+v = %+v", want, got)
		}
	})
}

// Timing headers parse defensively: absent, malformed and negative all
// read as zero so breakdown arithmetic never goes negative on bad input.
func TestHeaderNs(t *testing.T) {
	h := http.Header{}
	if got := headerNs(h, HeaderServerNs); got != 0 {
		t.Fatalf("absent header = %d", got)
	}
	h.Set(HeaderServerNs, "12345")
	if got := headerNs(h, HeaderServerNs); got != 12345 {
		t.Fatalf("valid header = %d", got)
	}
	for _, raw := range []string{"abc", "-5", "1.5"} {
		h.Set(HeaderServerNs, raw)
		if got := headerNs(h, HeaderServerNs); got != 0 {
			t.Fatalf("malformed %q = %d", raw, got)
		}
	}
}

// With Trace on, every attempt carries the three context headers — trace
// ID = the body digest, parent = the content-derived attempt span — and
// the response timing headers decompose into the Breakdown. With Trace
// off, no context header leaves the client, yet the breakdown is
// identical: that symmetry is the tracing-off inertness contract.
func TestClientTraceHeaderInjection(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []http.Header
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Clone())
		mu.Unlock()
		w.Header().Set(HeaderServerNs, strconv.Itoa(700))
		w.Header().Set(HeaderQueueNs, strconv.Itoa(200))
		w.Header().Set(HeaderSolveNs, strconv.Itoa(500))
		w.Header().Set(HeaderRouteNs, strconv.Itoa(900))
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	body := []byte(`{"id":"traced"}`)
	trace := BodyDigest(body)

	c, _ := NewClient(ClientConfig{URLs: []string{srv.URL}, Trace: true})
	res := c.Do(body)
	if res.Err != nil || res.Status != http.StatusOK {
		t.Fatalf("traced request failed: %+v", res)
	}
	if res.Trace != obs.TraceHex(trace) {
		t.Fatalf("Result.Trace = %q, want %q", res.Trace, obs.TraceHex(trace))
	}
	mu.Lock()
	h := seen[len(seen)-1]
	mu.Unlock()
	if got := h.Get(HeaderTrace); got != obs.TraceHex(trace) {
		t.Fatalf("%s = %q, want body digest %q", HeaderTrace, got, obs.TraceHex(trace))
	}
	wantSpan := obs.TraceDerive(trace, trace, obs.TSClientAttempt, 0)
	if got := h.Get(HeaderParentSpan); got != obs.TraceHex(wantSpan) {
		t.Fatalf("%s = %q, want attempt span %q", HeaderParentSpan, got, obs.TraceHex(wantSpan))
	}
	if got := h.Get(HeaderHop); got != obs.HopFirst {
		t.Fatalf("%s = %q, want %q", HeaderHop, got, obs.HopFirst)
	}
	bd := res.Breakdown
	if bd.SolveNs != 500 || bd.DaemonQueueNs != 200 || bd.RouterNs != 200 {
		t.Fatalf("breakdown from timing headers: %+v", bd)
	}
	if bd.NetworkNs <= 0 {
		t.Fatalf("network component not positive: %+v", bd)
	}

	c2, _ := NewClient(ClientConfig{URLs: []string{srv.URL}})
	res2 := c2.Do(body)
	if res2.Err != nil || res2.Trace != "" {
		t.Fatalf("untraced request: err=%v trace=%q", res2.Err, res2.Trace)
	}
	mu.Lock()
	h2 := seen[len(seen)-1]
	mu.Unlock()
	for _, name := range []string{HeaderTrace, HeaderParentSpan, HeaderHop} {
		if got := h2.Get(name); got != "" {
			t.Fatalf("tracing off but %s = %q on the wire", name, got)
		}
	}
	bd2 := res2.Breakdown
	if bd2.SolveNs != 500 || bd2.DaemonQueueNs != 200 || bd2.RouterNs != 200 {
		t.Fatalf("tracing off changed the breakdown: %+v", bd2)
	}
}

// A traced client with the collector enabled records attempt spans in the
// derivation scheme the stitcher expects; a traced retry records the
// backoff span too. Without the collector, Trace: true still stamps wire
// headers but records nothing.
func TestClientTraceSpansRecorded(t *testing.T) {
	var n int
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		first := n == 1
		mu.Unlock()
		if first {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	obs.TraceEnable("testclient")
	defer obs.TraceDisable()

	cfg := ClientConfig{URLs: []string{srv.URL}, Retries: 2, Trace: true}
	fastBackoff(&cfg)
	c, _ := NewClient(cfg)
	body := []byte(`{"id":"spans"}`)
	res := c.Do(body)
	if res.Err != nil || res.Status != http.StatusOK || res.Retries != 1 {
		t.Fatalf("retried request: %+v", res)
	}

	spans, dropped := obs.TraceSpans()
	if dropped != 0 {
		t.Fatalf("%d spans dropped", dropped)
	}
	trace := BodyDigest(body)
	byName := map[string][]obs.TraceSpan{}
	for _, sp := range spans {
		if sp.Trace != obs.TraceHex(trace) {
			t.Fatalf("span on wrong trace: %+v", sp)
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("recorded span invalid: %v (%+v)", err, sp)
		}
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	if len(byName[obs.TSClientAttempt]) != 2 {
		t.Fatalf("attempt spans = %d, want 2 (first + retry)", len(byName[obs.TSClientAttempt]))
	}
	if len(byName[obs.TSClientBackoff]) != 1 {
		t.Fatalf("backoff spans = %d, want 1", len(byName[obs.TSClientBackoff]))
	}
	kinds := map[string]bool{}
	for _, sp := range byName[obs.TSClientAttempt] {
		kinds[sp.Kind] = true
		want := obs.TraceDerive(trace, trace, obs.TSClientAttempt, 0)
		if sp.Kind == obs.HopRetry {
			want = obs.TraceDerive(trace, trace, obs.TSClientAttempt, 1)
		}
		if sp.Span != obs.TraceHex(want) {
			t.Fatalf("attempt span id %s, want %s (%+v)", sp.Span, obs.TraceHex(want), sp)
		}
	}
	if !kinds[obs.HopFirst] || !kinds[obs.HopRetry] {
		t.Fatalf("attempt kinds %v, want first+retry", kinds)
	}
}
