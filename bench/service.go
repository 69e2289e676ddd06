package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"synts/internal/fleet"
	"synts/internal/service"
)

// serviceSpec is one service workload: its fleet and its request mix.
type serviceSpec struct {
	daemons int     // synts serve processes
	shards  int     // -shards of each daemon
	routed  bool    // a synts route in front of the daemons
	repeat  float64 // service.GenOptions.RepeatFrac
	// closedPerSecond sizes the closed-loop phase: requests per second of
	// --seconds. Counts are fixed, not timed, because the daemon's memory
	// grows with every request it answers.
	closedPerSecond int
}

const (
	openRate       = 500  // open-loop requests per second
	warmupN        = 500  // untimed requests before the measured phases
	callers        = 2    // load-generator goroutines, one connection each
	setupRepeats   = 9    // fleet start-ups per run; setup_s is their median
	ledgerRequests = 2000 // requests the in-process service rows replay
)

// stream generates the workload's first n requests and their wire bodies,
// rendered the way synts loadgen renders them.
func (s serviceSpec) stream(seed int64, n int) ([]service.SolveRequest, [][]byte, error) {
	reqs := service.GenStream(service.GenOptions{Seed: seed, RepeatFrac: s.repeat}, n)
	bodies := make([][]byte, n)
	for i := range reqs {
		b, err := json.Marshal(&reqs[i])
		if err != nil {
			return nil, nil, fmt.Errorf("marshal request %d: %w", i, err)
		}
		bodies[i] = b
	}
	return reqs, bodies, nil
}

// fleetProcs is one started fleet.
type fleetProcs struct {
	procs []*child // daemons, then the router
	url   string   // where the load generator sends
}

// startFleet starts the daemons, waits until each answers /readyz, and
// only then starts the router and waits until it reports every backend
// ready: the router probes at start-up, and a probe that misses a daemon
// leaves it unready for a whole probe interval. It returns the time from
// the first exec to the last readiness answer.
func startFleet(env *env, s serviceSpec) (*fleetProcs, time.Duration, error) {
	f := &fleetProcs{}
	fail := func(err error) (*fleetProcs, time.Duration, error) {
		f.stop()
		return nil, 0, err
	}
	t0 := time.Now()
	var urls []string
	for i := 0; i < s.daemons; i++ {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		c, err := spawn(env.logDir, fmt.Sprintf("serve-%d", i), nil, env.synts, "serve",
			"-addr", addr, "-shards", strconv.Itoa(s.shards), "-queue", "64", "-drain-timeout", "5s")
		if err != nil {
			return fail(err)
		}
		f.procs = append(f.procs, c)
		urls = append(urls, "http://"+addr)
	}
	for i, u := range urls {
		if err := waitReady(f.procs[i], u, ""); err != nil {
			return fail(err)
		}
	}
	f.url = urls[0]
	if s.routed {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		c, err := spawn(env.logDir, "route", nil, env.synts, "route", "-addr", addr, "-backends", strings.Join(urls, ","))
		if err != nil {
			return fail(err)
		}
		f.procs = append(f.procs, c)
		f.url = "http://" + addr
		if err := waitReady(c, f.url, fmt.Sprintf("(%d/%d backends)", s.daemons, s.daemons)); err != nil {
			return fail(err)
		}
	}
	return f, time.Since(t0), nil
}

// stop stops the router first, then the daemons.
func (f *fleetProcs) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

// cpu is the CPU time the fleet's processes have used so far.
func (f *fleetProcs) cpu() (time.Duration, error) {
	var total time.Duration
	for _, c := range f.procs {
		d, err := procCPU(c.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

func (f *fleetProcs) pids() []int {
	var out []int
	for _, c := range f.procs {
		out = append(out, c.cmd.Process.Pid)
	}
	return out
}

// newClient is the load generator's client: single-shot (no retries, no
// hedging) so that every failure shows, with one keep-alive connection per
// caller.
func newClient(url string) (*fleet.Client, *http.Transport, error) {
	tr := &http.Transport{MaxConnsPerHost: callers}
	cl, err := fleet.NewClient(fleet.ClientConfig{URLs: []string{url}, Timeout: 10 * time.Second, Transport: tr})
	return cl, tr, err
}

// classify puts one call into exactly one outcome bucket, verifying a 200
// body against its request.
func classify(v *verifier, r *service.SolveRequest, c *call) (counts, error) {
	switch {
	case c.err:
		return counts{Attempted: 1, Errors: 1}, nil
	case c.ok():
		if err := v.check(r, c.body); err != nil {
			return counts{Attempted: 1, Incorrect: 1}, err
		}
		return counts{Attempted: 1, OK: 1}, nil
	case c.shed != "":
		return counts{Attempted: 1, Shed: 1}, nil
	default:
		return counts{Attempted: 1, Errors: 1}, nil
	}
}

// tally classifies calls[i] as the answer to reqs[i], verifying the 200
// bodies on `procs` goroutines, and logs the first few mismatches.
func tally(reqs []service.SolveRequest, calls []call, log io.Writer) counts {
	part := make([]counts, procs)
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	for g := range part {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := newVerifier()
			for i := g; i < len(calls); i += procs {
				c, err := classify(v, &reqs[i], &calls[i])
				part[g].add(c)
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	var total counts
	for _, c := range part {
		total.add(c)
	}
	logged := 0
	for i, err := range errs {
		if err != nil && logged < 5 {
			fmt.Fprintf(log, "request %d (%s seq %d): %v\n", i, reqs[i].Tenant, reqs[i].Seq, err)
			logged++
		}
	}
	return total
}

// latenciesMs returns the OK calls' latencies in ms, ascending.
func latenciesMs(calls []call) []float64 {
	var out []float64
	for i := range calls {
		if calls[i].ok() {
			out = append(out, float64(calls[i].latency())/1e6)
		}
	}
	return sortedCopy(out)
}

// loadgenMetrics records what the open-loop generator saw: latency, how
// late it sent, and the cache outcomes the daemon reported.
func loadgenMetrics(m metrics, open []call) {
	lat := latenciesMs(open)
	m.pct("loadgen.p50_ms", lat, 0.50, 1, "ms")
	m.pct("loadgen.p90_ms", lat, 0.90, 1, "ms")
	m.pct("loadgen.p99_ms", lat, 0.99, 1, "ms")
	if len(lat) >= 10000 { // p99.9 needs ten samples beyond it
		m.pct("loadgen.p999_ms", lat, 0.999, 1, "ms")
	}
	m.set("loadgen.samples", float64(len(lat)), "count")
	var late []float64
	var warm, coalesced int
	for i := range open {
		late = append(late, float64(open[i].late())/1e6)
		if open[i].warm {
			warm++
		}
		if open[i].coalesced {
			coalesced++
		}
	}
	late = sortedCopy(late)
	m.pct("loadgen.late_p50_ms", late, 0.50, 1, "ms")
	m.pct("loadgen.late_p99_ms", late, 0.99, 1, "ms")
	n := float64(max(len(lat), 1))
	m.set("service.warm_hit_frac", float64(warm)/n, "ratio")
	m.set("service.coalesce_frac", float64(coalesced)/n, "ratio")
}

// runService is one end-to-end run of a service workload: setupRepeats
// fleet start-ups (the last one is kept), an untimed warm-up, an open loop
// at openRate for two thirds of the run time, then a closed loop of
// closedPerSecond × seconds requests. Memory and latency come from the
// open loop, whose pace is fixed, and CPU per request and throughput from
// the closed loop, whose length follows the host's speed. Every 200 body is
// verified once the fleet is stopped.
func runService(env *env, s serviceSpec, seed int64, seconds int, m metrics) (counts, error) {
	nOpen := openRate * seconds * 2 / 3
	nClosed := s.closedPerSecond * seconds
	reqs, bodies, err := s.stream(seed, warmupN+nOpen+nClosed)
	if err != nil {
		return counts{}, err
	}
	var setups []float64
	var f *fleetProcs
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.stop()
		}
		var d time.Duration
		if f, d, err = startFleet(env, s); err != nil {
			return counts{}, err
		}
		setups = append(setups, d.Seconds())
	}
	defer f.stop()
	cl, tr, err := newClient(f.url)
	if err != nil {
		return counts{}, err
	}
	defer tr.CloseIdleConnections()
	send := clientSender(cl)

	warm, _ := drive(send, bodies[:warmupN], callers, 0)
	rss := sampleRSS(f.pids()...)
	open, _ := drive(send, bodies[warmupN:warmupN+nOpen], callers, openRate)
	rssMean := rss.mean()
	cpu0, err := f.cpu()
	if err != nil {
		return counts{}, err
	}
	closed, closedWall := drive(send, bodies[warmupN+nOpen:], callers, 0)
	cpu1, err := f.cpu()
	if err != nil {
		return counts{}, err
	}
	f.stop()

	c := tally(reqs, append(append(warm, open...), closed...), env.log)
	m.med("setup_s", setups, 1, "s")
	m.set("rss_mb", rssMean/1e6, "MB")
	m.set("fleet.cpu_us_per_req", (cpu1-cpu0).Seconds()*1e6/float64(nClosed), "us")
	m.set("loadgen.closed_rps", float64(nClosed)/closedWall.Seconds(), "1/s")
	loadgenMetrics(m, open)
	return c, nil
}

// replay re-runs a service workload's warm-up and a quarter-length
// open-loop phase on a fresh fleet, for the traced run. Even-numbered
// open-loop requests are traced and odd-numbered ones are not, so the
// untraced baseline the tracing overhead is measured against is sent at
// the same moments, to the same fleet.
func replay(env *env, s serviceSpec, seed int64, seconds int, rec *recorder) (traced, untraced []call, c counts, err error) {
	nOpen := openRate * seconds / 4
	reqs, bodies, err := s.stream(seed, warmupN+nOpen)
	if err != nil {
		return nil, nil, c, err
	}
	f, _, err := startFleet(env, s)
	if err != nil {
		return nil, nil, c, err
	}
	defer f.stop()
	cl, tr, err := newClient(f.url)
	if err != nil {
		return nil, nil, c, err
	}
	defer tr.CloseIdleConnections()
	warm, _ := drive(clientSender(cl), bodies[:warmupN], callers, 0)
	open, _ := drive(tracedSender(rec, cl, warmupN, s.routed), bodies[warmupN:], callers, openRate)
	f.stop()
	for i := range open {
		if i%2 == 0 {
			traced = append(traced, open[i])
		} else {
			untraced = append(untraced, open[i])
		}
	}
	return traced, untraced, tally(reqs, append(warm, open...), env.log), nil
}

// tracedSender sends every request; around each even-numbered one it
// records a client.do span and places inside it the hops fleet.Client's
// Breakdown attributes from the response's timing headers: the router,
// the daemon and, inside the daemon, the shard queue wait
// (X-Synts-Queue-Ns, which Breakdown counts as daemon time) and the solve.
// Only durations cross process boundaries, so each child is centred in its
// parent; each span's self time is then the Breakdown component.
func tracedSender(rec *recorder, cl *fleet.Client, reqOffset int, routed bool) sender {
	return func(i int, body []byte) *fleet.Result {
		t0 := time.Now()
		res := cl.Do(body)
		t1 := time.Now()
		if i%2 == 1 {
			return res
		}
		req := reqOffset + i
		parent := rec.add(0, req, "client.do", t0, t1)
		if res.Err != nil {
			return res
		}
		bd := res.Breakdown
		ps, pd := t0, t1.Sub(t0)
		place := func(name string, d time.Duration) {
			d = min(d, pd)
			s := ps.Add((pd - d) / 2)
			parent, ps, pd = rec.add(parent, req, name, s, s.Add(d)), s, d
		}
		daemon := time.Duration(bd.DaemonQueueNs + bd.SolveNs)
		if routed {
			place("router", time.Duration(bd.RouterNs)+daemon)
		}
		place("daemon", daemon)
		q := min(time.Duration(headerNs(res.Header, fleet.HeaderQueueNs)), time.Duration(bd.DaemonQueueNs))
		if sv := time.Duration(bd.SolveNs); q+sv > 0 { // warm and coalesced answers skip the shard
			s := ps.Add((pd - q - sv) / 2)
			rec.add(parent, req, "queue", s, s.Add(q))
			rec.add(parent, req, "solve", s.Add(q), s.Add(q+sv))
		}
		return res
	}
}

// hopMetrics turns the traced requests' spans into per-hop self times: for
// each hop the p50 over the requests that crossed it, and the mean over
// all traced requests, which is the hop's share of mean latency. It
// returns the sum of those means.
func hopMetrics(spans []span, m metrics) float64 {
	self := selfTimes(spans)
	us := make(map[string][]float64)
	for _, s := range spans {
		if s.Req >= 0 {
			us[s.Name] = append(us[s.Name], float64(self[s.ID])/1e3)
		}
	}
	requests := float64(max(len(us["client.do"]), 1))
	var sum float64
	for _, h := range []struct{ span, metric string }{
		{"client.do", "hop.client_net_us"},
		{"router", "hop.router_us"},
		{"daemon", "hop.daemon_self_us"},
		{"queue", "hop.queue_us"},
		{"solve", "hop.solve_us"},
	} {
		vs := us[h.span]
		if h.span == "router" && len(vs) == 0 {
			continue // only fleet-routed has a router hop
		}
		m.pct(h.metric+".p50", sortedCopy(vs), 0.5, 1, "us")
		hopMean := mean(vs) * float64(len(vs)) / requests
		m.set(h.metric+".mean", hopMean, "us")
		sum += hopMean
	}
	return sum
}
