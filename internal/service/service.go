// Package service is the long-lived solver daemon behind `synts serve`'s
// /v1/solve API: the paper's per-barrier-interval solve loop offered as a
// multi-tenant network service. Clients stream requests carrying per-core
// sampled error curves and a theta weight (exactly what the online
// sampling phase of §4.3 produces each interval) and get back the V/TSR
// assignment SynTS-Poly chooses, with per-core energy/time/replay
// attribution.
//
// The request path is: admit (drain gate + per-request chaos hooks) →
// warm-start (payloads already answered are served from a bounded
// in-memory cache) → shard (payload-keyed dispatch onto bounded per-shard
// queues; a full queue sheds the request with 429) → solve (guard-band
// screening, then SolvePoly under pool.Run) → respond. Every stage is
// observable: RED metrics, queue-depth / shed / warm-start series and a
// latency histogram through internal/obs, synts-trace/v1
// request/queue/solve spans for traced callers while the trace collector
// is on, and — while the ledger records — telemetry events
// (estimate/decision/barrier per solve, fallback for guard rejections and
// chaos drops, shed for admission rejections) in the same canonical
// synts-events/v1 ledger as the batch experiments.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"synts/internal/core"
	"synts/internal/exp"
	"synts/internal/faults"
	"synts/internal/fleet"
	"synts/internal/obs"
	"synts/internal/pool"
	"synts/internal/telemetry"
	"synts/internal/trace"
)

// SolverName is the Solver field of every ledger event the service emits.
const SolverName = "service-poly"

// maxBodyBytes bounds one request body; MaxCores cores with six rates
// each fit in well under 64 KiB.
const maxBodyBytes = 1 << 20

// errQueueFull is the dispatch error behind a 429.
var errQueueFull = errors.New("service: shard queue full")

// errDropped is the injected req-drop failure behind a chaos 503.
var errDropped = errors.New("service: request dropped by fault injection")

// Config sizes the daemon.
type Config struct {
	// Shards is the solver worker count; <= 0 means GOMAXPROCS.
	Shards int
	// QueueLen is the per-shard bounded queue capacity; <= 0 means 64.
	// When a shard's queue is full new requests shed with 429 — explicit
	// backpressure instead of collapse.
	QueueLen int
	// WarmCap bounds the in-memory warm cache; <= 0 means 4096 entries.
	WarmCap int
}

// job is one queued unit of shard work. run is a closure (rather than the
// request itself) so tests can occupy a shard deterministically. Its
// timestamps bound the shard queue wait (enq → started) and the worker
// solve (started → finished) that a fresh answer reports.
type job struct {
	run      func() *solveResult
	res      *solveResult
	err      error
	done     chan struct{}
	enq      time.Time // when dispatch enqueued the job
	started  time.Time // when the shard worker picked it up
	finished time.Time // when the solve completed
}

type shard struct {
	jobs  chan *job
	depth string // gauge name, precomputed
}

// Service is one solver daemon instance. Create with New, mount with
// Register, stop with Drain then Close.
type Service struct {
	cfg    Config
	stages map[string]*core.Config
	tsrs   []float64
	guard  core.GuardPolicy

	shards   []*shard
	workerWg sync.WaitGroup

	warm *warmCache

	admitMu  sync.RWMutex
	draining atomic.Bool
	inFlight sync.WaitGroup
}

// New builds the platform configs (one solver Config per pipe stage, the
// paper's voltage table with each stage's STA critical path), opens the
// warm-start cache, and starts the shard workers.
func New(cfg Config) (*Service, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 64
	}
	opts := exp.DefaultOptions()
	s := &Service{
		cfg:    cfg,
		stages: make(map[string]*core.Config),
		tsrs:   exp.TSRs(),
		warm:   newWarmCache(cfg.WarmCap),
	}
	for _, st := range trace.Stages() {
		c := exp.Platform(st, opts)
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("service: stage %s platform: %w", st, err)
		}
		s.stages[st.String()] = c
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh := &shard{
			jobs:  make(chan *job, cfg.QueueLen),
			depth: fmt.Sprintf("service.queue_depth.s%d", i),
		}
		s.shards[i] = sh
		s.workerWg.Add(1)
		go s.runShard(sh)
	}
	return s, nil
}

// Register mounts the service endpoints on mux: POST /v1/solve, plus
// /healthz (process liveness, always 200) and /readyz (admission
// readiness: 503 once draining).
func (s *Service) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
}

// admit reserves an in-flight slot unless the service is draining. The
// RWMutex pairs the drain flag with the WaitGroup increment, so Drain can
// never observe a zero count while an admitted request has yet to Add.
func (s *Service) admit() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	s.inFlight.Add(1)
	return true
}

// Drain stops admitting (new requests answer 503, /readyz flips) and
// blocks until every in-flight request has completed. Idempotent.
func (s *Service) Drain() {
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	s.inFlight.Wait()
}

// Close stops the shard workers. Call after Drain; queued jobs still
// complete (their requests are what Drain waited for).
func (s *Service) Close() {
	for _, sh := range s.shards {
		close(sh.jobs)
	}
	s.workerWg.Wait()
}

// runShard is one shard's worker loop: dequeue, solve under pool.Run,
// hand the result back.
func (s *Service) runShard(sh *shard) {
	defer s.workerWg.Done()
	for jb := range sh.jobs {
		obs.G(sh.depth).Set(float64(len(sh.jobs)))
		jb.started = time.Now()
		err := pool.Run(func() error {
			jb.res = jb.run()
			return nil
		})
		jb.finished = time.Now()
		if err != nil {
			jb.err = err
		}
		close(jb.done)
	}
}

// solve is the pure request → result function: core.SolveGuarded
// (guard-band screening, SolvePoly over the admitted curves, fallback
// cores pinned to nominal), then per-core attribution via Breakdown.
// Identical payloads produce byte-identical results at any shard count,
// which is what makes warm-starting and the determinism contract sound.
func (s *Service) solve(r *SolveRequest) *solveResult {
	cfg := s.stages[r.Stage]
	m := len(r.Cores)
	threads := make([]core.Thread, m)
	rates := make([][]float64, m)
	for i, cc := range r.Cores {
		threads[i] = core.Thread{N: cc.N, CPIBase: cc.CPIBase}
		rates[i] = cc.Rates
	}
	a, fallbacks := core.SolveGuarded(cfg, &s.guard, threads, rates, r.Theta)
	mtr := cfg.Evaluate(threads, a, r.Theta)
	cores := make([]CoreResult, m)
	for i, th := range threads {
		bd := cfg.Breakdown(th, a, i)
		cores[i] = CoreResult{
			VIdx: bd.VIdx, RIdx: bd.RIdx,
			V: bd.V, TSR: bd.R,
			Err: bd.Err, Replays: bd.Replays,
			Energy: bd.Energy, Time: bd.Time,
			Fallback: fallbacks[i],
		}
	}
	return &solveResult{
		Cores:  cores,
		Energy: mtr.Energy,
		TExec:  mtr.TExec,
		Cost:   mtr.Cost,
	}
}

// dispatch enqueues one solve on its payload-keyed shard and waits.
// A full queue returns errQueueFull immediately — bounded queues shed,
// they do not build unbounded latency. delay is the req-slow chaos
// penalty, paid on the worker so it consumes real shard capacity.
func (s *Service) dispatch(key uint64, r *SolveRequest, delay time.Duration) (*job, error) {
	sh := s.shards[key%uint64(len(s.shards))]
	jb := &job{run: func() *solveResult {
		if delay > 0 {
			time.Sleep(delay)
		}
		return s.solve(r)
	}, done: make(chan struct{}), enq: time.Now()}
	select {
	case sh.jobs <- jb:
		obs.G(sh.depth).Set(float64(len(sh.jobs)))
	default:
		return nil, errQueueFull
	}
	<-jb.done
	return jb, jb.err
}

// handleSolve is the POST /v1/solve handler.
func (s *Service) handleSolve(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	obs.C("service.requests").Add(1)
	body, err := io.ReadAll(io.LimitReader(req.Body, maxBodyBytes+1))
	if err != nil || len(body) > maxBodyBytes {
		obs.C("service.requests.client_error").Add(1)
		http.Error(w, "unreadable or oversized body", http.StatusBadRequest)
		return
	}
	var sr SolveRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		obs.C("service.requests.client_error").Add(1)
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := sr.validate(s.stages); err != nil {
		obs.C("service.requests.client_error").Add(1)
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}

	status := s.process(&sr, w, fleet.ParseTraceHeaders(req.Header), start)
	obs.H("service.latency_ns").Observe(float64(time.Since(start)))
	switch {
	case status == http.StatusOK:
		obs.C("service.requests.ok").Add(1)
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		// shed/drop counters were bumped at the decision site
	default:
		obs.C("service.requests.error").Add(1)
	}
}

// process runs one validated request through admit → warm-start → shard →
// solve → respond and returns the HTTP status it wrote. tc is the parsed
// incoming trace context (zero for untraced callers); every exit stamps
// X-Synts-Server-Ns so clients can attribute latency without tracing,
// and with the trace collector on the request/queue/solve trace spans
// are recorded at exit.
func (s *Service) process(r *SolveRequest, w http.ResponseWriter, tc fleet.TraceCtx, start time.Time) int {
	trace := tc.TraceHex()
	detail := "error"
	var fresh *job // the shard solve that answered, nil for a warm hit
	if tc.Valid() && obs.TraceEnabled() {
		defer func() {
			s.recordTraceSpans(tc, start, time.Now(), detail, fresh)
		}()
	}
	if !s.admit() {
		detail = "shed:" + ShedDraining
		return s.shed(r, w, trace, start, ShedDraining, http.StatusServiceUnavailable)
	}
	defer s.inFlight.Done()

	reqDig := requestDigest(r)
	if faults.RequestDrop(reqDig) {
		obs.C("service.chaos.req_drop").Add(1)
		obs.C("service.requests.dropped").Add(1)
		s.recordFallback(r, -1, ReasonReqDrop, trace)
		detail = "shed:" + ReasonReqDrop
		w.Header().Set(HeaderShedReason, ReasonReqDrop)
		stampServerNs(w, start)
		http.Error(w, errDropped.Error(), http.StatusServiceUnavailable)
		return http.StatusServiceUnavailable
	}

	// req-slow makes this request's solve slow on the worker (not a sleep
	// in the handler: the point is to consume shard capacity, so injected
	// slowness surfaces as queue depth and ultimately sheds, like a real
	// degraded solver would). Warm hits skip it — cached answers cost no
	// solver time.
	delay := faults.RequestDelay(reqDig)
	if delay > 0 {
		obs.C("service.chaos.req_slow").Add(1)
	}

	key := payloadDigest(r)
	res, warm := s.warm.get(key)
	if warm {
		obs.C("service.warm.hit").Add(1)
	} else {
		obs.C("service.warm.miss").Add(1)
		jb, err := s.dispatch(key, r, delay)
		if errors.Is(err, errQueueFull) {
			detail = "shed:" + ShedQueueFull
			return s.shed(r, w, trace, start, ShedQueueFull, http.StatusTooManyRequests)
		}
		if err != nil {
			obs.C("service.solve.errors").Add(1)
			// The error may carry a recovered panic's stack: it is for the
			// operator's log, not the client's body.
			log.Printf("service: solve %s failed: %v", DigestID(reqDig), err)
			stampServerNs(w, start)
			http.Error(w, "solve failed: internal error", http.StatusInternalServerError)
			return http.StatusInternalServerError
		}
		fresh, res = jb, jb.res
		s.warm.put(key, res)
	}

	s.recordSolve(r, res, trace)
	resp := SolveResponse{
		Schema: ResponseSchema,
		ID:     DigestID(reqDig),
		Tenant: r.Tenant,
		Seq:    r.Seq,
		Stage:  r.Stage,
		Theta:  r.Theta,
		Cores:  res.Cores,
		Energy: res.Energy,
		TExec:  res.TExec,
		Cost:   res.Cost,
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
	if warm {
		detail = "warm"
		w.Header().Set(HeaderWarm, "1")
	} else {
		// Only a fresh answer reports queue/solve time (and records the
		// queue/solve trace spans): a warm hit paid no solve.
		detail = "ok"
		w.Header().Set(fleet.HeaderQueueNs, strconv.FormatInt(fresh.started.Sub(fresh.enq).Nanoseconds(), 10))
		w.Header().Set(fleet.HeaderSolveNs, strconv.FormatInt(fresh.finished.Sub(fresh.started).Nanoseconds(), 10))
	}
	stampServerNs(w, start)
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
	return http.StatusOK
}

// stampServerNs reports the daemon's total handling time so far on the
// response; always set (tracing or not), it is what lets the fleet client
// decompose latency into network vs daemon components.
func stampServerNs(w http.ResponseWriter, start time.Time) {
	w.Header().Set(fleet.HeaderServerNs, strconv.FormatInt(time.Since(start).Nanoseconds(), 10))
}

// recordTraceSpans records the request's trace spans at exit: one
// service.request span (kind = how the hop arrived), plus service.queue
// and service.solve children when the request paid a fresh shard solve
// (fresh is non-nil).
func (s *Service) recordTraceSpans(tc fleet.TraceCtx, start, end time.Time, detail string, fresh *job) {
	trace := tc.TraceHex()
	parent := ""
	if tc.Parent != 0 {
		parent = obs.TraceHex(tc.Parent)
	}
	reqID := obs.TraceDerive(tc.Trace, tc.Parent, obs.TSServiceRequest, 0)
	obs.TraceRecord(obs.TraceSpan{
		Trace: trace, Span: obs.TraceHex(reqID), Parent: parent,
		Name: obs.TSServiceRequest, Kind: tc.Hop, Detail: detail,
	}, start, end)
	if fresh == nil {
		return
	}
	obs.TraceRecord(obs.TraceSpan{
		Trace: trace, Span: obs.TraceHex(obs.TraceDerive(tc.Trace, reqID, obs.TSServiceQueue, 0)),
		Parent: obs.TraceHex(reqID), Name: obs.TSServiceQueue, Kind: obs.HopQueue,
	}, fresh.enq, fresh.started)
	obs.TraceRecord(obs.TraceSpan{
		Trace: trace, Span: obs.TraceHex(obs.TraceDerive(tc.Trace, reqID, obs.TSServiceSolve, 0)),
		Parent: obs.TraceHex(reqID), Name: obs.TSServiceSolve, Kind: obs.HopSolve,
	}, fresh.started, fresh.finished)
}

// shed rejects one request before solving: explicit status, a reason
// header the load generator keys on, a shed counter, and a shed ledger
// event (carrying the request's trace ID when it had one) so overload
// behaviour is auditable after the fact.
func (s *Service) shed(r *SolveRequest, w http.ResponseWriter, trace string, start time.Time, reason string, status int) int {
	switch reason {
	case ShedQueueFull:
		obs.C("service.shed.queue_full").Add(1)
	case ShedDraining:
		obs.C("service.shed.draining").Add(1)
	}
	if telemetry.Enabled() {
		telemetry.Record(telemetry.Event{
			Kind:     telemetry.KindShed,
			Bench:    r.Tenant,
			Stage:    r.Stage,
			Solver:   SolverName,
			Theta:    r.Theta,
			Interval: r.Seq,
			Core:     -1,
			Reason:   reason,
			Trace:    trace,
		})
	}
	w.Header().Set(HeaderShedReason, reason)
	stampServerNs(w, start)
	http.Error(w, "shed: "+reason, status)
	return status
}

// recordFallback emits one fallback ledger event for a request.
func (s *Service) recordFallback(r *SolveRequest, coreIdx int, reason, trace string) {
	if !telemetry.Enabled() {
		return
	}
	telemetry.Record(telemetry.Event{
		Kind:     telemetry.KindFallback,
		Bench:    r.Tenant,
		Stage:    r.Stage,
		Solver:   SolverName,
		Theta:    r.Theta,
		Interval: r.Seq,
		Core:     coreIdx,
		Reason:   reason,
		Trace:    trace,
	})
}

// recordSolve emits the ledger view of one answered request: estimate
// events for every plausible (core, TSR level) rate the client supplied,
// a decision event per core, fallback events for guard-rejected cores,
// and one barrier event. Events are derived from (request, result) only —
// never from scheduling — so the ledger multiset is identical at any
// shard count and the canonical sort makes the bytes identical too.
// Warm-started requests emit the same events a fresh solve would: the
// ledger records intent served, not solver invocations.
// trace (a pure function of the request body) rides on the fallback
// events only — the traceable kinds — keeping the rest of the multiset
// identical with tracing on or off for distinct requests.
func (s *Service) recordSolve(r *SolveRequest, res *solveResult, trace string) {
	if !telemetry.Enabled() {
		return
	}
	base := telemetry.Event{
		Bench:    r.Tenant,
		Stage:    r.Stage,
		Solver:   SolverName,
		Theta:    r.Theta,
		Interval: r.Seq,
	}
	for i, cc := range r.Cores {
		for k, rate := range cc.Rates {
			if !(rate >= 0 && rate <= 1) {
				continue // NaN/out-of-range: the fallback event tells the story
			}
			e := base
			e.Kind = telemetry.KindEstimate
			e.Core = i
			e.TSR = s.tsrs[k]
			e.EstErr = rate
			e.ActErr = rate
			telemetry.Record(e)
		}
		cr := res.Cores[i]
		e := base
		e.Kind = telemetry.KindDecision
		e.Core = i
		e.V = cr.V
		e.TSR = cr.TSR
		e.EstErr = cr.Err
		e.ActErr = cr.Err
		e.Replays = cr.Replays
		e.Energy = cr.Energy
		e.Time = cr.Time
		e.Instrs = cc.N
		e.IntervalCycles = cc.N * cc.CPIBase
		telemetry.Record(e)
		if cr.Fallback != "" {
			s.recordFallback(r, i, cr.Fallback, trace)
		}
	}
	e := base
	e.Kind = telemetry.KindBarrier
	e.Core = -1
	e.Cores = len(r.Cores)
	e.Energy = res.Energy
	e.Time = res.TExec
	telemetry.Record(e)
}
