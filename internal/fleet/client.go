package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"synts/internal/obs"
)

// ClientConfig tunes a solve client. Zero fields get defaults from
// NewClient.
type ClientConfig struct {
	// URLs holds the one base URL the client sends to (e.g.
	// http://127.0.0.1:9187): a single daemon, or a `synts route` router
	// in front of several. NewClient refuses any other count.
	URLs []string
	// Timeout bounds one logical request end to end, including every
	// retry; <= 0 means 30s.
	Timeout time.Duration
	// Retries is the extra-attempt budget per request (0 = first attempt
	// only). Retried-then-OK requests count once in load reports.
	Retries int
	// BackoffBase/BackoffCap shape the full-jitter exponential backoff
	// between attempts: attempt k waits uniform[0, min(Cap, Base<<k)).
	// Defaults 25ms / 1s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed fixes the backoff jitter stream so chaos runs reproduce.
	Seed int64
	// Trace enables distributed-trace propagation: every attempt carries
	// X-Synts-Trace/-Parent-Span/-Hop headers (trace ID = the body
	// digest, so a seeded stream reproduces the same traces run-to-run)
	// and, when the obs trace collector is on, records client attempt and
	// backoff spans. Off by default and provably inert when off: the
	// per-hop Breakdown is computed from response timing headers either
	// way.
	Trace bool
	// Transport overrides the HTTP transport (tests).
	Transport http.RoundTripper
}

// Breakdown decomposes one logical request's end-to-end latency into the
// per-hop components of the `synts trace` attribution model. The
// components sum to at most the end-to-end latency; the remainder is
// ClientQueueNs, filled by the caller who owns the end-to-end clock.
type Breakdown struct {
	// ClientQueueNs is end-to-end time not spent in attempts or backoffs
	// (scheduling, connection setup outside the attempt clock).
	ClientQueueNs int64
	// RetryWaitNs is backoff sleep between attempts.
	RetryWaitNs int64
	// NetworkNs is attempt wall time not accounted to the router or
	// daemon by their timing headers — wire time plus failed attempts.
	NetworkNs int64
	// RouterNs is router handling time beyond the backend's own
	// (X-Synts-Route-Ns − X-Synts-Server-Ns); 0 for direct requests.
	RouterNs int64
	// DaemonQueueNs is daemon handling time outside the worker solve
	// (X-Synts-Server-Ns − X-Synts-Solve-Ns): solve-queue wait plus
	// handler overhead.
	DaemonQueueNs int64
	// SolveNs is the solver worker's solve time (X-Synts-Solve-Ns).
	SolveNs int64
	// AttemptsWallNs is total attempt wall time (bookkeeping for
	// ClientQueueNs; not a report component itself).
	AttemptsWallNs int64
}

// Result is one logical request's outcome after every attempt ran.
// Exactly one of (Err != nil) and (Status != 0) holds.
type Result struct {
	Status int
	Header http.Header
	Body   []byte
	// Err is set only when no attempt produced a final HTTP response
	// within the budget (transport failures, torn responses, deadline).
	Err error
	// Retries counts extra attempts beyond the first.
	Retries int
	// Failovers counts the backend switches a router reported via the
	// X-Synts-Failover header (0 when the URL is a daemon).
	Failovers int
	// Shed reports the shed reason header of the final response ("" if
	// none): sheds are the service coping, not the client failing.
	Shed string
	// Trace is the request's 16-hex trace ID ("" when tracing is off).
	Trace string
	// Breakdown decomposes the request's latency by hop (see Breakdown).
	Breakdown Breakdown
}

// Client is the solve client: per-request deadlines and bounded
// seeded-jitter retries against one URL. Spreading load over several
// daemons, failing over between them and tripping breakers is the
// router's job (`synts route`). Zero overhead when nothing fails: a
// healthy request is one POST and retries = failovers = 0.
type Client struct {
	cfg ClientConfig
	url string
	hc  *http.Client

	mu  sync.Mutex
	rng *rand.Rand
}

// NewClient builds a client over cfg.URLs, which must hold exactly one
// URL.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.URLs) != 1 {
		return nil, fmt.Errorf("fleet: client takes one URL, got %d; put several daemons behind synts route", len(cfg.URLs))
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = time.Second
	}
	return &Client{
		cfg: cfg,
		url: cfg.URLs[0],
		hc:  &http.Client{Transport: cfg.Transport},
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Do runs one logical solve request to completion: attempts and backoff,
// all inside one deadline.
func (c *Client) Do(body []byte) *Result {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
	defer cancel()
	res := &Result{}
	var trace uint64
	if c.cfg.Trace {
		trace = BodyDigest(body)
		res.Trace = obs.TraceHex(trace)
	}
	traceOn := c.cfg.Trace && obs.TraceEnabled()
	var lastErr error
	for a := 0; a <= c.cfg.Retries; a++ {
		hop := obs.HopFirst
		if a > 0 {
			hop = obs.HopRetry
			res.Retries++
			obs.C("fleet.client.retries").Add(1)
			w0 := time.Now()
			select {
			case <-time.After(c.backoff(a)):
			case <-ctx.Done():
			}
			res.Breakdown.RetryWaitNs += time.Since(w0).Nanoseconds()
			if traceOn {
				obs.TraceRecord(obs.TraceSpan{
					Trace: obs.TraceHex(trace), Parent: obs.TraceHex(trace),
					Span: obs.TraceHex(obs.TraceDerive(trace, trace, obs.TSClientBackoff, a)),
					Name: obs.TSClientBackoff, Kind: obs.HopWait,
				}, w0, time.Now())
			}
			if ctx.Err() != nil {
				res.Err = ctx.Err()
				return res
			}
		}
		attemptSpan := obs.TraceDerive(trace, trace, obs.TSClientAttempt, a)
		t0 := time.Now()
		status, header, respBody, err := c.attempt(ctx, body, trace, attemptSpan, hop)
		wall := time.Since(t0)
		res.Breakdown.AttemptsWallNs += wall.Nanoseconds()
		recordAttempt := func(detail string) {
			if !traceOn {
				return
			}
			obs.TraceRecord(obs.TraceSpan{
				Trace: obs.TraceHex(trace), Parent: obs.TraceHex(trace),
				Span: obs.TraceHex(attemptSpan), Name: obs.TSClientAttempt,
				Kind: hop, Backend: c.url, Detail: detail,
			}, t0, t0.Add(wall))
		}
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				recordAttempt("cancelled")
				res.Err = ctx.Err()
				return res
			}
			recordAttempt("error")
			continue
		}
		shed := header.Get(HeaderShedReason)
		if status >= 500 && shed == "" {
			recordAttempt(fmt.Sprintf("status:%d", status))
			lastErr = fmt.Errorf("fleet: %s answered %d", c.url, status)
			continue
		}
		detail := "ok"
		if shed != "" {
			detail = "shed:" + shed
		}
		recordAttempt(detail)
		res.Status, res.Header, res.Body, res.Shed = status, header, respBody, shed
		if n, err := strconv.Atoi(header.Get(HeaderFailover)); err == nil && n > 0 {
			res.Failovers = n
		}
		fillBreakdown(res)
		return res
	}
	if lastErr == nil {
		lastErr = errors.New("fleet: request budget exhausted")
	}
	res.Err = lastErr
	return res
}

// fillBreakdown derives the network/router/daemon components from the
// final response's timing headers and the accumulated attempt wall time.
// Pure header arithmetic — identical with tracing on or off.
func fillBreakdown(res *Result) {
	bd := &res.Breakdown
	serverNs := headerNs(res.Header, HeaderServerNs)
	routeNs := headerNs(res.Header, HeaderRouteNs)
	bd.SolveNs = headerNs(res.Header, HeaderSolveNs)
	if d := serverNs - bd.SolveNs; d > 0 {
		bd.DaemonQueueNs = d
	}
	outer := serverNs
	if routeNs > 0 {
		outer = routeNs
		if d := routeNs - serverNs; d > 0 {
			bd.RouterNs = d
		}
	}
	if d := bd.AttemptsWallNs - outer; d > 0 {
		bd.NetworkNs = d
	}
}

// attempt is one POST. A response-body read error (a connection cut
// mid-body) is an attempt failure, not a final answer. With tracing on, the attempt's trace context rides along so the
// downstream hop parents its spans correctly.
func (c *Client) attempt(ctx context.Context, body []byte, trace, span uint64, hop string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+SolvePath, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != 0 {
		SetTraceHeaders(req.Header, trace, span, hop)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, nil, fmt.Errorf("fleet: torn response from %s: %w", c.url, err)
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// backoff draws attempt a's full-jitter wait: uniform over
// [0, min(cap, base<<(a-1))). Seeded, so a chaos run's retry timing
// reproduces (modulo scheduling).
func (c *Client) backoff(a int) time.Duration {
	max := c.cfg.BackoffBase << uint(a-1)
	if max > c.cfg.BackoffCap || max <= 0 {
		max = c.cfg.BackoffCap
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Float64() * float64(max))
	c.mu.Unlock()
	return d
}
