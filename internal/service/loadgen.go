package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"synts/internal/fleet"
	"synts/internal/obs"
)

// LoadSchema identifies a load-generator report.
const LoadSchema = "synts-load/v1"

// LoadOptions configures one open-loop run against a live service.
type LoadOptions struct {
	// URL is the base URL of one daemon or of a `synts route` router
	// (e.g. http://127.0.0.1:8080); the generator POSTs to URL +
	// "/v1/solve". A comma-separated list is refused: several daemons go
	// behind the router.
	URL string
	// Timeout bounds one logical request end to end, retries included;
	// <= 0 means 30s (the bare-client behaviour this replaced).
	Timeout time.Duration
	// Retries is the fleet client's extra-attempt budget per request;
	// 0 keeps the client single-shot. A retried-then-OK request counts
	// once, as OK — the count identity is over logical requests.
	Retries int
	// RPS is the target open-loop arrival rate; <= 0 means 50.
	RPS float64
	// Duration bounds the run; <= 0 means 5s. The request count is
	// RPS * Duration, fixed up front — the schedule never adapts to
	// service latency, which is what makes overload visible as shed
	// rather than hidden as generator slowdown.
	Duration time.Duration
	// Gen seeds the request stream (see GenStream); Gen.Seed also stamps
	// the report.
	Gen GenOptions
	// MaxInFlight bounds concurrent outstanding requests; <= 0 means 256.
	// An arrival finding no free slot is counted Dropped, not delayed —
	// the open-loop contract again.
	MaxInFlight int
	// SLO is the pass/fail gate stamped into the report.
	SLO SLO
	// Trace injects X-Synts-Trace headers on every request and records a
	// root client.request span per logical request (collected when the obs
	// trace collector is enabled). Off by default; the per-hop breakdown
	// below is computed from timing headers either way, so enabling Trace
	// never changes the report's numbers — only whether artifacts exist.
	Trace bool
}

// SLO is the service-level objective a run is judged against.
type SLO struct {
	// P95MaxMs fails the run if the p95 latency exceeds it; <= 0 skips
	// the latency gate.
	P95MaxMs float64 `json:"p95_max_ms"`
	// MaxErrorFrac fails the run if (errors + dropped) / requests
	// exceeds it. Sheds are NOT errors: a 429/503 with a shed reason is
	// the service behaving as designed under overload.
	MaxErrorFrac float64 `json:"max_error_frac"`
}

// LatencySummary is the report's latency digest, in milliseconds,
// computed by exact sort over all observed request latencies.
type LatencySummary struct {
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// HopQuantile decomposes the end-to-end latency of the OK request sitting
// at one nearest-rank quantile into per-hop components, from the timing
// headers that request's response carried. The serial components
// (client_queue + retry_wait + network + router + daemon_queue + solve)
// never exceed total_ms — every component is header-derived with clamps
// that only shrink — and obscheck -load fails the artifact if they do.
type HopQuantile struct {
	TotalMs       float64 `json:"total_ms"`
	ClientQueueMs float64 `json:"client_queue_ms"`
	RetryWaitMs   float64 `json:"retry_wait_ms"`
	NetworkMs     float64 `json:"network_ms"`
	RouterMs      float64 `json:"router_ms"`
	DaemonQueueMs float64 `json:"daemon_queue_ms"`
	SolveMs       float64 `json:"solve_ms"`
}

// HopBreakdown is the report's tail-attribution digest: the exact OK
// request at each latency quantile, decomposed hop by hop. Sampling the
// real request at the rank (rather than averaging a band) keeps each row
// internally consistent, which is what makes the envelope checkable.
type HopBreakdown struct {
	P50 HopQuantile `json:"p50"`
	P95 HopQuantile `json:"p95"`
	P99 HopQuantile `json:"p99"`
}

// LoadReport is the synts-load/v1 result of one run.
type LoadReport struct {
	Schema      string  `json:"schema"`
	Seed        int64   `json:"seed"`
	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	DurationMs  float64 `json:"duration_ms"`

	// Requests = OK + Shed + ClientErrors + Errors + Dropped, always.
	Requests     int `json:"requests"`
	OK           int `json:"ok"`
	Shed         int `json:"shed"` // 429/503 carrying X-Synts-Shed-Reason
	ClientErrors int `json:"client_errors"`
	Errors       int `json:"errors"` // transport failures + unexpected statuses
	Dropped      int `json:"dropped"`

	WarmHits int `json:"warm_hits"`

	// Resilience counters: what the fleet client and router did beneath
	// the logical requests above. Retries counts the client's extra
	// attempts, Failovers the backend switches the router reported. Both
	// zero on a healthy single-backend run — the inertness contract.
	Retries   int `json:"retries"`
	Failovers int `json:"failovers"`

	Latency LatencySummary `json:"latency"`
	// HopBreakdown is computed over OK requests only (sheds and errors
	// never reached a solve, so their decomposition is not comparable);
	// all-zero when the run produced no OK request.
	HopBreakdown HopBreakdown `json:"hop_breakdown"`
	SLO          SLO          `json:"slo"`
	SLOPass      bool         `json:"slo_pass"`
}

// Validate checks a report's internal consistency: the schema tag, the
// count identity, and quantile ordering. cmd/obscheck -load runs this on
// CI artifacts.
func (r *LoadReport) Validate() error {
	if r.Schema != LoadSchema {
		return fmt.Errorf("schema %q, want %q", r.Schema, LoadSchema)
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"requests", r.Requests}, {"ok", r.OK}, {"shed", r.Shed},
		{"client_errors", r.ClientErrors}, {"errors", r.Errors},
		{"dropped", r.Dropped},
		{"warm_hits", r.WarmHits},
		{"retries", r.Retries}, {"failovers", r.Failovers},
	} {
		if c.v < 0 {
			return fmt.Errorf("negative %s count %d", c.name, c.v)
		}
	}
	// The outcome counts must sum to requests. Each is taken from what is
	// left, so counts whose sum wraps around int cannot pass.
	left := r.Requests
	for _, c := range []struct {
		name string
		v    int
	}{{"ok", r.OK}, {"shed", r.Shed}, {"client_errors", r.ClientErrors}, {"errors", r.Errors}, {"dropped", r.Dropped}} {
		if c.v > left {
			return fmt.Errorf("outcome counts exceed requests = %d at %s", r.Requests, c.name)
		}
		left -= c.v
	}
	if left != 0 {
		return fmt.Errorf("outcome counts sum to %d, want requests = %d", r.Requests-left, r.Requests)
	}
	if r.Requests == 0 {
		return fmt.Errorf("empty run: zero requests")
	}
	if r.DurationMs <= 0 {
		return fmt.Errorf("non-positive duration_ms %v", r.DurationMs)
	}
	q := r.Latency
	for _, v := range []float64{q.P50, q.P95, q.P99, q.Max} {
		if math.IsNaN(v) || v < 0 {
			return fmt.Errorf("bad latency quantile %v", v)
		}
	}
	if q.P50 > q.P95 || q.P95 > q.P99 || q.P99 > q.Max {
		return fmt.Errorf("latency quantiles out of order: p50=%v p95=%v p99=%v max=%v",
			q.P50, q.P95, q.P99, q.Max)
	}
	for _, hq := range []struct {
		name string
		q    HopQuantile
	}{{"p50", r.HopBreakdown.P50}, {"p95", r.HopBreakdown.P95}, {"p99", r.HopBreakdown.P99}} {
		if err := hq.q.validate(); err != nil {
			return fmt.Errorf("hop_breakdown %s: %w", hq.name, err)
		}
	}
	return nil
}

// validate enforces the envelope: the serial per-hop components of one
// request cannot sum to more than that request took end to end. The
// epsilon absorbs float64 ns→ms rounding only, not real overcounting.
func (h *HopQuantile) validate() error {
	comps := []struct {
		name string
		v    float64
	}{
		{"total_ms", h.TotalMs}, {"client_queue_ms", h.ClientQueueMs},
		{"retry_wait_ms", h.RetryWaitMs}, {"network_ms", h.NetworkMs},
		{"router_ms", h.RouterMs}, {"daemon_queue_ms", h.DaemonQueueMs},
		{"solve_ms", h.SolveMs},
	}
	for _, c := range comps {
		if math.IsNaN(c.v) || c.v < 0 {
			return fmt.Errorf("bad %s %v", c.name, c.v)
		}
	}
	serial := h.ClientQueueMs + h.RetryWaitMs + h.NetworkMs +
		h.RouterMs + h.DaemonQueueMs + h.SolveMs
	if serial > h.TotalMs+1e-6 {
		return fmt.Errorf("serial components sum to %.6fms, exceeding total %.6fms",
			serial, h.TotalMs)
	}
	return nil
}

// RunLoad executes one seeded open-loop run: request i fires at
// start + i/RPS regardless of how earlier requests fared, bounded only
// by MaxInFlight. The request mix is GenStream's, so two runs with equal
// options replay byte-identical request bodies in the same order.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	rps := opts.RPS
	if rps <= 0 {
		rps = 50
	}
	dur := opts.Duration
	if dur <= 0 {
		dur = 5 * time.Second
	}
	maxIF := opts.MaxInFlight
	if maxIF <= 0 {
		maxIF = 256
	}
	n := int(rps * dur.Seconds())
	if n < 1 {
		n = 1
	}
	reqs := GenStream(opts.Gen, n)
	bodies := make([][]byte, n)
	for i := range reqs {
		b, err := json.Marshal(&reqs[i])
		if err != nil {
			return nil, fmt.Errorf("loadgen: marshal request %d: %w", i, err)
		}
		bodies[i] = b
	}
	var urls []string
	for _, u := range strings.Split(opts.URL, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	client, err := fleet.NewClient(fleet.ClientConfig{
		URLs:    urls,
		Timeout: opts.Timeout,
		Retries: opts.Retries,
		Seed:    opts.Gen.Seed,
		Trace:   opts.Trace,
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}

	rep := &LoadReport{
		Schema:    LoadSchema,
		Seed:      opts.Gen.Seed,
		TargetRPS: rps,
		SLO:       opts.SLO,
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	latencies := make([]float64, 0, n)
	samples := make([]HopQuantile, 0, n) // OK requests only, ms
	slots := make(chan struct{}, maxIF)
	interval := time.Duration(float64(time.Second) / rps)
	start := time.Now()
	for i := 0; i < n; i++ {
		if d := start.Add(time.Duration(i) * interval).Sub(time.Now()); d > 0 {
			time.Sleep(d)
		}
		select {
		case slots <- struct{}{}:
		default:
			mu.Lock()
			rep.Dropped++
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			defer func() { <-slots }()
			t0 := time.Now()
			res := client.Do(body)
			lat := time.Since(t0)
			if res.Trace != "" && obs.TraceEnabled() {
				detail := "error"
				switch {
				case res.Err != nil:
					detail = "error"
				case res.Status == http.StatusOK:
					detail = "ok"
				case res.Shed != "":
					detail = "shed:" + res.Shed
				default:
					detail = "status:" + strconv.Itoa(res.Status)
				}
				obs.TraceRecord(obs.TraceSpan{
					Trace:  res.Trace,
					Span:   res.Trace,
					Name:   obs.TSClientRequest,
					Kind:   obs.HopRoot,
					Detail: detail,
				}, t0, t0.Add(lat))
			}
			mu.Lock()
			defer mu.Unlock()
			// Resilience bookkeeping first: retries and failovers happened
			// even when the logical request ultimately failed.
			rep.Retries += res.Retries
			rep.Failovers += res.Failovers
			// Exactly one outcome bucket per logical request: a
			// retried-then-OK request is one OK, so the count identity
			// Requests = OK + Shed + ClientErrors + Errors + Dropped holds
			// with the machinery engaged.
			if res.Err != nil {
				rep.Errors++
				return
			}
			latencies = append(latencies, float64(lat)/float64(time.Millisecond))
			switch {
			case res.Status == http.StatusOK:
				rep.OK++
				if res.Header.Get(HeaderWarm) != "" {
					rep.WarmHits++
				}
				// Only the client knows the full end-to-end clock, so the
				// client-queue residue is filled here: whatever part of the
				// latency was neither backoff sleep nor attempt wall time.
				bd := res.Breakdown
				bd.ClientQueueNs = lat.Nanoseconds() - bd.RetryWaitNs - bd.AttemptsWallNs
				if bd.ClientQueueNs < 0 {
					bd.ClientQueueNs = 0
				}
				samples = append(samples, HopQuantile{
					TotalMs:       float64(lat) / float64(time.Millisecond),
					ClientQueueMs: float64(bd.ClientQueueNs) / 1e6,
					RetryWaitMs:   float64(bd.RetryWaitNs) / 1e6,
					NetworkMs:     float64(bd.NetworkNs) / 1e6,
					RouterMs:      float64(bd.RouterNs) / 1e6,
					DaemonQueueMs: float64(bd.DaemonQueueNs) / 1e6,
					SolveMs:       float64(bd.SolveNs) / 1e6,
				})
			case res.Shed != "":
				rep.Shed++
			case res.Status >= 400 && res.Status < 500:
				rep.ClientErrors++
			default:
				rep.Errors++
			}
		}(bodies[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep.Requests = n
	rep.DurationMs = float64(elapsed) / float64(time.Millisecond)
	rep.AchievedRPS = float64(n-rep.Dropped) / elapsed.Seconds()
	sort.Float64s(latencies)
	rep.Latency = LatencySummary{
		P50: quantile(latencies, 0.50),
		P95: quantile(latencies, 0.95),
		P99: quantile(latencies, 0.99),
	}
	if len(latencies) > 0 {
		rep.Latency.Max = latencies[len(latencies)-1]
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].TotalMs < samples[j].TotalMs })
	rep.HopBreakdown = HopBreakdown{
		P50: hopQuantile(samples, 0.50),
		P95: hopQuantile(samples, 0.95),
		P99: hopQuantile(samples, 0.99),
	}
	rep.SLOPass = rep.slo()
	return rep, nil
}

// hopQuantile picks the sample at the exact nearest-rank quantile of the
// sorted-by-total slice: the decomposition of one real request, not an
// average over a band.
func hopQuantile(sorted []HopQuantile, q float64) HopQuantile {
	if len(sorted) == 0 {
		return HopQuantile{}
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// slo evaluates the report against its SLO gate.
func (r *LoadReport) slo() bool {
	if r.SLO.P95MaxMs > 0 && r.Latency.P95 > r.SLO.P95MaxMs {
		return false
	}
	frac := float64(r.Errors+r.Dropped) / float64(r.Requests)
	return frac <= r.SLO.MaxErrorFrac
}

// quantile is the exact nearest-rank quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
