package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"synts/internal/obs"
	"synts/internal/telemetry"
)

// RouterSolverName is the Solver field of every ledger event the router
// emits (breaker transitions, failovers, no-backend sheds).
const RouterSolverName = "fleet-route"

// maxRouteBody mirrors the service's request-body bound.
const maxRouteBody = 1 << 20

// attemptTimeout bounds one proxied attempt to one backend.
const attemptTimeout = 10 * time.Second

// RouterConfig sizes a consistent-hash solve router.
type RouterConfig struct {
	// Backends are the daemon base URLs traffic is hashed onto (Ring).
	// Required.
	Backends []string
	// ProbeInterval is the /readyz health-check period; <= 0 means 500ms.
	ProbeInterval time.Duration
	// Breaker configures the per-backend circuit breakers.
	Breaker BreakerConfig
	// Transport overrides the proxy HTTP transport (tests).
	Transport http.RoundTripper
}

// backend is one routed-to daemon's state.
type backend struct {
	url     string
	name    string // host:port, the ledger/metrics label
	breaker *Breaker

	mu    sync.Mutex
	ready bool
}

func (b *backend) isReady() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ready
}

// Router is the consistent-hash front of a solver fleet: it orders the
// backends for each request by its body digest (Ring), probes every
// backend's /readyz once per ProbeInterval, routes around unhealthy or
// breaker-open members deterministically, and fails a request over to
// its next backend when an attempt dies under it — the Razor replay of
// the fleet layer. Create with NewRouter, start the probe loop with
// Start, mount with Register, stop with Stop.
type Router struct {
	cfg      RouterConfig
	ring     *Ring
	backends []*backend

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRouter builds a router over cfg.Backends. Backends start unready:
// the first probe cycle (which Start runs immediately) brings them up, so
// /readyz answering 200 means the fleet really has been probed.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: router needs at least one backend")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	rt := &Router{
		cfg:  cfg,
		ring: NewRing(cfg.Backends),
		stop: make(chan struct{}),
	}
	for i, u := range cfg.Backends {
		name := u
		if j := len("http://"); len(u) > j && (u[:j] == "http://") {
			name = u[j:]
		}
		b := &backend{url: u, name: name}
		gauge := "route.backend.b" + strconv.Itoa(i) + ".breaker_state"
		bcfg := cfg.Breaker
		bcfg.OnTransition = func(from, to BreakerState, reason, trace string) {
			obs.C("route.breaker." + to.String()).Add(1)
			// Breaker position as a gauge (closed=0, open=1, half-open=2)
			// so the /metrics surface exposes live breaker state per
			// backend alongside the RED counters.
			obs.G(gauge).Set(float64(to))
			if telemetry.Enabled() {
				telemetry.Record(telemetry.Event{
					Kind:   telemetry.KindBreaker,
					Bench:  b.name,
					Solver: RouterSolverName,
					Core:   -1,
					Reason: to.String() + ":" + reason,
					Trace:  trace,
				})
			}
		}
		b.breaker = NewBreaker(bcfg)
		rt.backends = append(rt.backends, b)
	}
	return rt, nil
}

// Start launches the health-probe loop: the first cycle immediately,
// then one every ProbeInterval.
func (rt *Router) Start() {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		for {
			rt.probeAll()
			select {
			case <-rt.stop:
				return
			case <-time.After(rt.cfg.ProbeInterval):
			}
		}
	}()
}

// Stop halts the probe loop.
func (rt *Router) Stop() {
	close(rt.stop)
	rt.wg.Wait()
}

// probeAll checks every backend's /readyz once.
func (rt *Router) probeAll() {
	for i, b := range rt.backends {
		ready := rt.probe(b)
		b.mu.Lock()
		was := b.ready
		b.ready = ready
		b.mu.Unlock()
		if was != ready {
			obs.C("route.health.transitions").Add(1)
			if ready {
				obs.G("route.backend.b" + strconv.Itoa(i) + ".healthy").Set(1)
			} else {
				obs.G("route.backend.b" + strconv.Itoa(i) + ".healthy").Set(0)
			}
		}
	}
}

// probe is one GET /readyz with a short deadline.
func (rt *Router) probe(b *backend) bool {
	to := rt.cfg.ProbeInterval
	if to > 2*time.Second {
		to = 2 * time.Second
	}
	hc := &http.Client{Transport: rt.cfg.Transport, Timeout: to}
	resp, err := hc.Get(b.url + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Healthy counts ready backends.
func (rt *Router) Healthy() int {
	n := 0
	for _, b := range rt.backends {
		if b.isReady() {
			n++
		}
	}
	return n
}

// Plan returns the backend index each body routes to with every backend
// healthy — the deterministic routing plan `synts route -plan` prints and
// the golden tests replay.
func (rt *Router) Plan(bodies [][]byte) []int {
	out := make([]int, len(bodies))
	for i, body := range bodies {
		out[i] = rt.ring.Seq(BodyDigest(body))[0]
	}
	return out
}

// Register mounts the router endpoints: the proxied solve path plus
// /healthz (process liveness) and /readyz (200 while at least one backend
// is ready).
func (rt *Router) Register(mux *http.ServeMux) {
	mux.HandleFunc(SolvePath, rt.handleSolve)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if rt.Healthy() == 0 {
			http.Error(w, "no ready backends", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "ready (%d/%d backends)\n", rt.Healthy(), len(rt.backends))
	})
}

// handleSolve proxies one solve: order the backends by the body's digest,
// walk that order past unready or breaker-rejected members, try each
// admitted backend until one answers, and pass the answer through with
// X-Synts-Backend / X-Synts-Failover stamped on. A request only fails
// toward the client when every backend is gone — and even then it fails
// as an explicit no-backends shed, not a raw error.
func (rt *Router) handleSolve(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	obs.C("route.requests").Add(1)
	body, err := io.ReadAll(io.LimitReader(req.Body, maxRouteBody+1))
	if err != nil || len(body) > maxRouteBody {
		obs.C("route.requests.client_error").Add(1)
		http.Error(w, "unreadable or oversized body", http.StatusBadRequest)
		return
	}

	// Incoming distributed-trace context. The route.request trace span
	// parents one route.hop per backend examined (skips included, as
	// zero-length hops), so the stitched tree shows the whole ring walk.
	tr := &routeTrace{tc: ParseTraceHeaders(req.Header)}
	if tr.tc.Valid() {
		tr.reqSpan = obs.TraceDerive(tr.tc.Trace, tr.tc.Parent, obs.TSRouteRequest, 0)
		tr.on = obs.TraceEnabled()
		if tr.on {
			defer func(t0 time.Time) {
				obs.TraceRecord(obs.TraceSpan{
					Trace: tr.tc.TraceHex(), Span: obs.TraceHex(tr.reqSpan),
					Parent: hexOrEmpty(tr.tc.Parent), Name: obs.TSRouteRequest,
					Kind: tr.tc.Hop, Detail: tr.detail,
				}, t0, time.Now())
			}(start)
		}
	}

	seq := rt.ring.Seq(BodyDigest(body))
	hops := 0
	for _, idx := range seq {
		b := rt.backends[idx]
		if !b.isReady() {
			obs.C("route.remapped").Add(1)
			tr.recordSkip(b, "unready")
			continue
		}
		if !b.breaker.Allow() {
			obs.C("route.skipped.breaker_open").Add(1)
			tr.recordSkip(b, "breaker-open")
			continue
		}
		ok, done := rt.tryBackend(w, b, idx, body, hops, start, tr)
		if done {
			return
		}
		if !ok {
			hops++
		}
	}
	// Nothing answered: an explicit shed, visible in metrics and ledger.
	tr.detail = "shed:" + ReasonNoBackends
	obs.C("route.shed.no_backends").Add(1)
	if telemetry.Enabled() {
		telemetry.Record(telemetry.Event{
			Kind:   telemetry.KindShed,
			Solver: RouterSolverName,
			Core:   -1,
			Reason: ReasonNoBackends,
			Trace:  tr.tc.TraceHex(),
		})
	}
	w.Header().Set(HeaderShedReason, ReasonNoBackends)
	w.Header().Set(HeaderRouteNs, strconv.FormatInt(time.Since(start).Nanoseconds(), 10))
	http.Error(w, "shed: "+ReasonNoBackends, http.StatusServiceUnavailable)
}

// routeTrace is one proxied request's trace state: the parsed incoming
// context, the derived route.request span ID, and the running hop index
// that makes every hop span ID deterministic for the request.
type routeTrace struct {
	tc      TraceCtx
	on      bool // record spans locally (context may propagate regardless)
	reqSpan uint64
	hopIdx  int
	detail  string
}

// nextHop derives the next route.hop span ID (valid context only).
func (tr *routeTrace) nextHop() uint64 {
	id := obs.TraceDerive(tr.tc.Trace, tr.reqSpan, obs.TSRouteHop, tr.hopIdx)
	tr.hopIdx++
	return id
}

// recordSkip records a zero-length hop for a backend the ring walk passed
// over (unready or breaker-open) — the skip is part of the request's
// critical path and `synts trace` counts traces that crossed one.
func (tr *routeTrace) recordSkip(b *backend, detail string) {
	if !tr.tc.Valid() {
		return
	}
	id := tr.nextHop()
	if !tr.on {
		return
	}
	now := time.Now()
	obs.TraceRecord(obs.TraceSpan{
		Trace: tr.tc.TraceHex(), Span: obs.TraceHex(id),
		Parent: obs.TraceHex(tr.reqSpan), Name: obs.TSRouteHop,
		Kind: obs.HopSkip, Backend: b.name, Detail: detail,
	}, now, now)
}

// hexOrEmpty renders an ID as 16-hex, or "" for the zero ID (root spans).
func hexOrEmpty(id uint64) string {
	if id == 0 {
		return ""
	}
	return obs.TraceHex(id)
}

// tryBackend proxies the request to one backend. Returns done=true when a
// response (success or passthrough) was written; ok=false when the
// attempt failed and the caller should fail over.
func (rt *Router) tryBackend(w http.ResponseWriter, b *backend, idx int, body []byte, hops int, start time.Time, tr *routeTrace) (ok, done bool) {
	red := "route.backend.b" + strconv.Itoa(idx)
	obs.C(red + ".requests").Add(1)

	// One route.hop span per attempted backend: kind "first" for the hash
	// pick, "failover" for every replay further along the ring walk.
	hopKind := obs.HopFirst
	if hops > 0 {
		hopKind = obs.HopFailover
	}
	var hopSpan uint64
	if tr.tc.Valid() {
		hopSpan = tr.nextHop()
	}
	hopStart := time.Now()
	recordHop := func(detail string) {
		if !tr.on {
			return
		}
		obs.TraceRecord(obs.TraceSpan{
			Trace: tr.tc.TraceHex(), Span: obs.TraceHex(hopSpan),
			Parent: obs.TraceHex(tr.reqSpan), Name: obs.TSRouteHop,
			Kind: hopKind, Backend: b.name, Detail: detail,
		}, hopStart, time.Now())
	}
	trace := tr.tc.TraceHex()

	req, err := http.NewRequest(http.MethodPost, b.url+SolvePath, bytes.NewReader(body))
	if err != nil {
		rt.failAttempt(b, red, "backend-error", trace)
		recordHop("backend-error")
		return false, false
	}
	req.Header.Set("Content-Type", "application/json")
	if tr.tc.Valid() {
		// Forward the trace: the hop span becomes the daemon's parent. The
		// hop *kind* forwarded downstream keeps the client's first/retry
		// label unless this hop is itself a failover replay.
		fwdHop := tr.tc.Hop
		if hops > 0 {
			fwdHop = obs.HopFailover
		}
		SetTraceHeaders(req.Header, tr.tc.Trace, hopSpan, fwdHop)
	}
	hc := &http.Client{Transport: rt.cfg.Transport, Timeout: attemptTimeout}
	resp, err := hc.Do(req)
	if err != nil {
		rt.failAttempt(b, red, "backend-error", trace)
		recordHop("backend-error")
		return false, false
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		rt.failAttempt(b, red, "backend-error", trace)
		recordHop("backend-error")
		return false, false
	}
	shed := resp.Header.Get(HeaderShedReason)
	if resp.StatusCode >= 500 && shed == "" {
		rt.failAttempt(b, red, "backend-error", trace)
		recordHop("backend-error")
		return false, false
	}
	if shed == ReasonDraining {
		// Orderly shutdown: not a breaker-worthy failure, but the work
		// belongs on a surviving backend. Mark unready so routing remaps
		// before the next probe cycle confirms it.
		b.breaker.RecordT(true, trace)
		b.mu.Lock()
		b.ready = false
		b.mu.Unlock()
		rt.recordFailover(b, ReasonDraining, trace)
		recordHop("shed:" + ReasonDraining)
		return false, false
	}

	// Success (or a passthrough 4xx/shed the backend chose): stamp routing
	// metadata and relay.
	b.breaker.RecordT(true, trace)
	obs.H(red + ".latency_ns").Observe(float64(time.Since(start)))
	if resp.StatusCode != http.StatusOK {
		obs.C(red + ".passthrough").Add(1)
	} else {
		obs.C(red + ".ok").Add(1)
	}
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	h.Set(HeaderBackend, strconv.Itoa(idx))
	h.Set(HeaderRouteNs, strconv.FormatInt(time.Since(start).Nanoseconds(), 10))
	if hops > 0 {
		h.Set(HeaderFailover, strconv.Itoa(hops))
		obs.C("route.requests.failover").Add(1)
	}
	detail := "ok"
	if shed != "" {
		detail = "shed:" + shed
	} else if resp.StatusCode != http.StatusOK {
		detail = "status:" + strconv.Itoa(resp.StatusCode)
	}
	tr.detail = detail
	recordHop(detail)
	h.Set("Content-Length", strconv.Itoa(len(respBody)))
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
	return true, true
}

// failAttempt records one failed proxy attempt: breaker feedback, RED
// metrics, and a failover ledger event naming the backend that lost the
// request (carrying the request's trace ID when it had one).
func (rt *Router) failAttempt(b *backend, red, reason, trace string) {
	b.breaker.RecordT(false, trace)
	obs.C(red + ".errors").Add(1)
	obs.C(red + ".failovers").Add(1)
	obs.C("route.failover").Add(1)
	rt.recordFailover(b, reason, trace)
}

// recordFailover emits one failover ledger event.
func (rt *Router) recordFailover(b *backend, reason, trace string) {
	if !telemetry.Enabled() {
		return
	}
	telemetry.Record(telemetry.Event{
		Kind:   telemetry.KindFailover,
		Bench:  b.name,
		Solver: RouterSolverName,
		Core:   -1,
		Reason: reason,
		Trace:  trace,
	})
}
