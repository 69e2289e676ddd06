package main

// The in-process layer ledger. Each row times calls into one package's
// public functions from outside, on batch-paper's own inputs (size 2, the
// run's seed, 4 threads, 3 intervals) or on the first ledgerRequests
// requests of a service workload's stream.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"synts/internal/core"
	"synts/internal/cpu"
	"synts/internal/exp"
	"synts/internal/fleet"
	"synts/internal/isa"
	"synts/internal/netlist"
	"synts/internal/obs"
	"synts/internal/service"
	"synts/internal/simprof"
	"synts/internal/telemetry"
	"synts/internal/timing"
	"synts/internal/trace"
	"synts/internal/workload"
)

// laneStudyPrograms and paretoFigures are the fig5.10 and fig6.11–6.16
// experiments as `synts all` runs them.
var laneStudyPrograms = []string{"BlackScholes", "MatrixMult", "BinarySearch", "FFT", "EigenValue", "StreamCluster"}

var paretoFigures = []struct {
	bench string
	stage trace.Stage
}{
	{"fmm", trace.SimpleALU},
	{"cholesky", trace.SimpleALU},
	{"cholesky", trace.Decode},
	{"raytrace", trace.Decode},
	{"cholesky", trace.ComplexALU},
	{"raytrace", trace.ComplexALU},
}

// batchLedger times the batch layers: kernels, profile builds (pooled and
// serial), the timing engine, the CPI model, the GPGPU lane study and the
// SynTS sweeps. It returns the time of the calls that do not overlap in a
// `synts -j 1 all` run: kernels, pooled profile builds, lane study and
// sweeps.
func batchLedger(seed int64, rec *recorder, m metrics) (time.Duration, error) {
	opts := exp.DefaultOptions()
	opts.Seed = seed

	var benches []*exp.Bench
	var kernels time.Duration
	instructions := 0
	for _, name := range workload.PaperSuite() {
		var b *exp.Bench
		var err error
		// LoadBench is workload.RunKernel plus the truncation to
		// MaxIntervals that every experiment sees.
		kernels += rec.timed(0, "workload.RunKernel:"+name, func() { b, err = exp.LoadBench(name, opts) })
		if err != nil {
			return 0, err
		}
		for _, s := range b.Streams {
			instructions += s.TotalInstructions()
		}
		benches = append(benches, b)
	}
	m.set("workload.run_kernel_s", kernels.Seconds(), "s")
	m.set("workload.instructions", float64(instructions), "count")

	// The pooled builds go through Bench.Profiles, as `synts all` calls
	// them: a pool of GOMAXPROCS workers, whose profiles the sweeps below
	// then read.
	var pooled, serial time.Duration
	for _, b := range benches {
		for _, st := range trace.Stages() {
			var err error
			pooled += rec.timed(0, "exp.Bench.Profiles:"+b.Name+":"+st.String(), func() {
				_, err = b.Profiles(st)
			})
			if err != nil {
				return 0, err
			}
			serial += rec.timed(0, "trace.BuildProfilesSerial:"+b.Name+":"+st.String(), func() {
				_, err = trace.BuildProfilesSerial(b.Streams, st, opts.Cache)
			})
			if err != nil {
				return 0, err
			}
		}
	}
	m.set("trace.build_profiles_s", pooled.Seconds(), "s")
	m.set("trace.build_profiles_serial_s", serial.Seconds(), "s")
	m.set("trace.parallel_speedup", serial.Seconds()/pooled.Seconds(), "x")

	engineLedger(benches, rec, m)
	if err := cpuLedger(benches, opts, rec, m); err != nil {
		return 0, err
	}

	var err error
	lanes := rec.timed(0, "exp.Fig510", func() {
		for _, p := range laneStudyPrograms {
			if _, _, err = exp.Fig510(p, 16000/6, seed); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, err
	}
	m.set("gpgpu.lane_study_s", lanes.Seconds(), "s")

	byName := make(map[string]*exp.Bench)
	for _, b := range benches {
		byName[b.Name] = b
	}
	ctx := context.Background()
	sweeps := rec.timed(0, "exp.sweeps", func() {
		for _, f := range paretoFigures {
			if _, err = exp.ParetoCtx(ctx, byName[f.bench], f.stage); err != nil {
				return
			}
		}
		for _, st := range trace.Stages() {
			if _, err = exp.Fig618Ctx(ctx, benches, st); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, err
	}
	m.set("exp.sweeps_s", sweeps.Seconds(), "s")
	return kernels + pooled + lanes + sweeps, nil
}

// engineSample sets the share of (kernel, stage, thread, interval) cells
// the engine ledger times: one in engineSample, the interval rotating with
// the thread. All of them would repeat a whole serial profile build twice
// over, and the metrics are per instruction, per gate or shares.
const engineSample = 3

// engineLedger times the timing engine on a sample of (kernel, stage,
// thread, interval) cells: StageCircuit.DelayTrace after SeekPC, then, on
// the same 64-lane blocks of driving vectors, BlockAnalyzer.StepBlock and
// BitEval.EvalBlock on their own.
func engineLedger(benches []*exp.Bench, rec *recorder, m metrics) {
	var delay, step, eval time.Duration
	var insts, touched, gateVectors, gateBlocks int64
	for _, b := range benches {
		for _, st := range trace.Stages() {
			for ti, s := range b.Streams {
				for ii, iv := range s.Intervals {
					if (ti+ii)%engineSample != 0 {
						continue
					}
					sc := trace.NewStageCircuit(st)
					sc.SeekPC(s.Intervals[:ii])
					delay += rec.timed(0, "trace.DelayTrace", func() { sc.DelayTrace(iv) })
					insts += int64(len(iv))

					blk := packBlocks(st, s.Intervals[:ii], iv)
					if blk == nil {
						continue // nothing in the interval drives this stage
					}
					gates := int64(len(blk.netlist.Gates))
					ba := timing.NewBlockAnalyzer(blk.netlist)
					ba.Reset(blk.prime)
					primed := ba.Touched()
					delays := make([]float64, 64)
					step += rec.timed(0, "timing.StepBlock", func() {
						for k, w := range blk.words {
							ba.StepBlock(w, blk.lanes[k], delays, nil)
						}
					})
					touched += ba.Touched() - primed
					gateVectors += gates * int64(blk.vectors)

					be := timing.NewBitEval(blk.netlist)
					eval += rec.timed(0, "timing.BitEval.EvalBlock", func() {
						for _, w := range blk.words {
							be.EvalBlock(w)
						}
					})
					gateBlocks += gates * int64(len(blk.words))
				}
			}
		}
	}
	m.set("trace.delay_trace_s", delay.Seconds(), "s")
	m.set("trace.delay_trace_ns_per_inst", float64(delay.Nanoseconds())/float64(insts), "ns")
	m.set("timing.step_ns_per_touched_gate", float64(step.Nanoseconds())/float64(touched), "ns")
	m.set("timing.touched_gates", float64(touched), "count")
	m.set("timing.activity_frac", float64(touched)/float64(gateVectors), "ratio")
	m.set("gates.eval_ns_per_gate_block", float64(eval.Nanoseconds())/float64(gateBlocks), "ns")
}

// blocks is one interval's driving vectors packed the way the event engine
// packs them: the first primes the analyzer, the rest go 64 to a block,
// bit j of words[k][i] being input i of block k's j-th vector.
type blocks struct {
	netlist *netlist.Netlist
	prime   []bool
	words   [][]uint64
	lanes   []int // vectors in each block
	vectors int
}

// packBlocks packs iv for stage st on a fresh circuit positioned after the
// earlier intervals; nil when no instruction of iv drives the stage.
func packBlocks(st trace.Stage, earlier [][]isa.Inst, iv []isa.Inst) *blocks {
	sc := trace.NewStageCircuit(st)
	sc.SeekPC(earlier)
	var b *blocks
	var cur []uint64
	lanes := 0
	flush := func() {
		b.words = append(b.words, cur)
		b.lanes = append(b.lanes, lanes)
		lanes = 0
	}
	for _, in := range iv {
		if !sc.Drives(in) {
			continue
		}
		vec := sc.Vector(in)
		if b == nil {
			b = &blocks{netlist: sc.Netlist, prime: append([]bool(nil), vec...)}
			continue
		}
		if lanes == 0 {
			cur = make([]uint64, len(sc.Netlist.Inputs))
		}
		for i, v := range vec {
			if v {
				cur[i] |= 1 << uint(lanes)
			}
		}
		lanes++
		b.vectors++
		if lanes == 64 {
			flush()
		}
	}
	if lanes > 0 {
		flush()
	}
	return b
}

// cpuLedger times cpu.MeasureCPI per (kernel, thread, interval), one warm
// cache per thread as the profile builders use it.
func cpuLedger(benches []*exp.Bench, opts exp.Options, rec *recorder, m metrics) error {
	var d time.Duration
	var hits, accesses int
	for _, b := range benches {
		for _, s := range b.Streams {
			cache, err := cpu.NewCache(opts.Cache)
			if err != nil {
				return err
			}
			for _, iv := range s.Intervals {
				var res cpu.CPIResult
				d += rec.timed(0, "cpu.MeasureCPI", func() { res = cpu.MeasureCPI(iv, cache) })
				hits += res.Hits
				accesses += res.Accesses
			}
		}
	}
	m.set("cpu.measure_cpi_s", d.Seconds(), "s")
	m.set("cpu.hit_ratio", float64(hits)/float64(max(accesses, 1)), "ratio")
	return nil
}

// serviceLedger times the solver and the daemon's handler (on svc) in
// process, on the first ledgerRequests requests of a stream, and checks
// every answer.
func serviceLedger(svc *service.Service, reqs []service.SolveRequest, bodies [][]byte, rec *recorder, m metrics, log io.Writer) (counts, error) {
	n := min(ledgerRequests, len(reqs))
	v := newVerifier()

	// SolvePoly on the inputs the daemon builds from each request.
	solveUs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cfg, ths, _, err := v.threads(&reqs[i])
		if err != nil {
			return counts{}, err
		}
		d := rec.timed(0, "core.SolvePoly", func() { core.SolvePoly(cfg, ths, reqs[i].Theta) })
		solveUs = append(solveUs, float64(d)/1e3)
	}
	solveUs = sortedCopy(solveUs)
	m.pct("core.solve_poly_us.p50", solveUs, 0.50, 1, "us")
	m.pct("core.solve_poly_us.p90", solveUs, 0.90, 1, "us")

	// The instrumentation `synts serve` switches on.
	obs.Enable()
	telemetry.Enable()
	simprof.Enable()
	mux := http.NewServeMux()
	svc.Register(mux)

	var c counts
	handlerUs := make([]float64, 0, n)
	selfUs := make([]float64, 0, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		// The body is dropped once checked, so it does not count as retained.
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, fleet.SolvePath, bytes.NewReader(bodies[i]))
		d := rec.timed(0, "service.handler", func() { mux.ServeHTTP(rr, req) })
		h := rr.Header()
		var cl call
		record(&cl, &fleet.Result{Status: rr.Code, Header: h, Body: rr.Body.Bytes(), Shed: h.Get(fleet.HeaderShedReason)})
		got, err := classify(v, &reqs[i], &cl)
		if err != nil {
			fmt.Fprintf(log, "service.handler request %d: %v\n", i, err)
		}
		c.add(got)
		handlerUs = append(handlerUs, float64(d)/1e3)
		selfUs = append(selfUs, float64(d-time.Duration(headerNs(h, fleet.HeaderSolveNs)))/1e3)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	handlerUs, selfUs = sortedCopy(handlerUs), sortedCopy(selfUs)
	m.pct("service.handler_us.p50", handlerUs, 0.50, 1, "us")
	m.pct("service.handler_us.p90", handlerUs, 0.90, 1, "us")
	m.pct("service.self_us.p50", selfUs, 0.50, 1, "us")
	m.set("service.retained_kb_per_req", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(n)/1e3, "KB")
	return c, nil
}

// headerNs reads a nanosecond timing header (0 when absent or malformed).
func headerNs(h http.Header, key string) int64 {
	v, _ := strconv.ParseInt(h.Get(key), 10, 64)
	return v
}
