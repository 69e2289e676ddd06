// Command obscheck validates the observability artifacts a synts run
// emits: the -stats-json snapshot, the fleet's synts-trace/v1 artifacts,
// the -events-out decision ledger, the -simprof-out simulation profile
// and the `synts loadgen` load report. CI runs it against freshly generated
// files so a schema regression fails the build instead of silently
// shipping artifacts no dashboard can parse.
//
// Usage:
//
//	obscheck -stats stats.json -trace traces/ -events events.jsonl -simprof simprof.pb.gz -load load.json
//
// Any flag may be omitted to check only the others. When both -events and
// -simprof are given, the profiler's replay- and sampling-phase totals are
// cross-checked against the ledger's replay/estimate events.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"synts/internal/isa"
	"synts/internal/obs"
	"synts/internal/sched"
	"synts/internal/service"
	"synts/internal/simprof"
	"synts/internal/telemetry"
	"synts/internal/trace"
)

func main() {
	statsPath := flag.String("stats", "", "path to a -stats-json snapshot")
	tracePath := flag.String("trace", "", "path to a synts-trace/v1 artifact or a -trace-dir directory of them")
	eventsPath := flag.String("events", "", "path to an -events-out decision ledger (synts-events/v1 JSONL)")
	simprofPath := flag.String("simprof", "", "path to a -simprof-out simulation profile (gzipped pprof profile.proto)")
	loadPath := flag.String("load", "", "path to a `synts loadgen` report (synts-load/v1)")
	allowEmpty := flag.Bool("allow-empty", false, "accept a ledger or profile with zero events/samples (schema is still enforced)")
	eventsRequire := flag.String("events-require", "decision,barrier,estimate", "comma-separated event `kinds` the -events ledger must contain (a router ledger carries breaker,failover instead of the batch kinds)")
	flag.Parse()
	if *statsPath == "" && *tracePath == "" && *eventsPath == "" && *simprofPath == "" && *loadPath == "" {
		fmt.Fprintln(os.Stderr, "obscheck: nothing to check (need -stats, -trace, -events, -simprof and/or -load)")
		os.Exit(2)
	}
	failed := false
	check := func(path string, fn func(string) error) {
		if path == "" {
			return
		}
		if err := fn(path); err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %s: %v\n", path, err)
			failed = true
		} else {
			fmt.Printf("obscheck: %s ok\n", path)
		}
	}
	check(*statsPath, checkStats)
	check(*tracePath, checkTrace)
	check(*eventsPath, func(p string) error { return checkEvents(p, *allowEmpty, *eventsRequire) })
	check(*simprofPath, func(p string) error { return checkSimprof(p, *eventsPath, *allowEmpty) })
	check(*loadPath, checkLoad)
	if failed {
		os.Exit(1)
	}
}

// checkLoad enforces the synts-load/v1 contract via the report's own
// validator: schema tag, outcome counts that sum to the request total,
// and ordered latency quantiles.
func checkLoad(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var r service.LoadReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("not a load report: %w", err)
	}
	return r.Validate()
}

// checkStats enforces the snapshot contract: parseable as obs.Snapshot,
// a self-describing meta block (toolchain, platform, engine, workload
// coordinates), pool queue-wait histogram with quantiles, the derived
// BenchCache hit ratio in [0,1], and the per-stage profile-build region
// histograms.
func checkStats(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var s obs.Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("not a stats snapshot: %w", err)
	}
	if s.Timestamp == "" || s.GoMaxProcs <= 0 {
		return fmt.Errorf("missing timestamp/gomaxprocs")
	}
	if s.Meta == nil {
		return fmt.Errorf("missing meta block")
	}
	if s.Meta.GoVersion == "" || s.Meta.GOOS == "" || s.Meta.GOARCH == "" {
		return fmt.Errorf("meta is missing the toolchain/platform fields: %+v", s.Meta)
	}
	if s.Meta.GoMaxProcs != s.GoMaxProcs {
		return fmt.Errorf("meta gomaxprocs %d disagrees with snapshot %d", s.Meta.GoMaxProcs, s.GoMaxProcs)
	}
	if s.Meta.NumCPU < 1 || s.Meta.Size < 0 {
		return fmt.Errorf("implausible meta block: %+v", s.Meta)
	}
	if _, err := trace.ParseEngine(s.Meta.Engine); err != nil {
		return fmt.Errorf("meta engine: %w", err)
	}
	qw, ok := s.Histograms["pool.queue_wait_ns"]
	if !ok {
		return fmt.Errorf("missing histogram pool.queue_wait_ns")
	}
	if qw.Count == 0 || qw.P95 < 0 || qw.P95 > qw.Max {
		return fmt.Errorf("implausible queue-wait summary: %+v", qw)
	}
	ratio, ok := s.Derived["exp.benchcache.hit_ratio"]
	if !ok {
		return fmt.Errorf("missing derived exp.benchcache.hit_ratio")
	}
	if ratio < 0 || ratio > 1 {
		return fmt.Errorf("benchcache hit ratio %v outside [0,1]", ratio)
	}
	stages := 0
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, "trace.build_profiles:") {
			stages++
			if h.Count == 0 || h.Sum <= 0 {
				return fmt.Errorf("histogram %s has empty totals: %+v", name, h)
			}
		}
	}
	if stages == 0 {
		return fmt.Errorf("no per-stage trace.build_profiles histograms recorded")
	}
	for name, c := range s.Counters {
		if c < 0 {
			return fmt.Errorf("counter %s is negative: %d", name, c)
		}
	}
	return nil
}

// checkTrace enforces the synts-trace/v1 contract over one artifact (the
// merged one `synts trace -merged` writes included) or a -trace-dir full
// of them: every span parses against the closed producer vocabulary,
// every file is in canonical order (verified by re-serialising and
// byte-comparing, the same diffability contract the events ledger has),
// and the union of artifacts stitches into complete trees — a
// client.request root per trace and zero orphan spans, i.e.
// cross-process span IDs actually line up.
func checkTrace(path string) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	files := []string{path}
	if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.trace.jsonl"))
		if err != nil {
			return err
		}
		sort.Strings(files)
		if len(files) == 0 {
			return fmt.Errorf("no *.trace.jsonl artifacts in %s", path)
		}
	}
	var all []obs.TraceSpan
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		spans, err := obs.ReadTraceJSONL(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		var canon bytes.Buffer
		if err := obs.WriteTraceJSONL(&canon, spans); err != nil {
			return err
		}
		if !bytes.Equal(raw, canon.Bytes()) {
			return fmt.Errorf("%s: not in canonical order (or non-canonical encoding): re-serialising %d spans changed the bytes", f, len(spans))
		}
		all = append(all, spans...)
	}
	if len(all) == 0 {
		return fmt.Errorf("artifacts contain no trace spans")
	}
	res := sched.Stitch(all)
	if len(res.Trees) == 0 {
		return fmt.Errorf("%d spans stitched into no complete trace (no client.request roots)", len(all))
	}
	if res.Orphans > 0 {
		return fmt.Errorf("stitch left %d orphan span(s) across %d trace(s): per-process artifacts do not line up", res.Orphans, len(res.Trees))
	}
	return nil
}

// checkEvents enforces the synts-events/v1 ledger contract: the schema
// header, per-event field validity (kinds, probability ranges, sign
// constraints), presence of each event kind -events-require names (the
// batch pipeline promises decision/barrier/estimate, the default; a
// router ledger promises breaker/failover instead), and —
// by re-serialising and byte-comparing — that the file is in the
// canonical order WriteJSONL defines, so ledgers stay diffable across
// runs and -j values.
func checkEvents(path string, allowEmpty bool, require string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	events, err := telemetry.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if len(events) == 0 {
		if allowEmpty {
			return nil
		}
		return fmt.Errorf("ledger contains no events (pass -allow-empty if a bare header is expected)")
	}
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, kind := range strings.Split(require, ",") {
		if kind = strings.TrimSpace(kind); kind == "" {
			continue
		}
		if kinds[kind] == 0 {
			return fmt.Errorf("ledger has no %q events", kind)
		}
	}
	var canon bytes.Buffer
	if err := telemetry.WriteJSONL(&canon, events); err != nil {
		return err
	}
	if !bytes.Equal(raw, canon.Bytes()) {
		return fmt.Errorf("ledger is not in canonical order (or uses non-canonical encoding): re-serialising %d events changed the bytes", len(events))
	}
	return nil
}

// simprofSampleKey is a profile sample's bucket key reconstructed from
// its synthetic stack and labels, used to verify canonical sample order.
type simprofSampleKey struct {
	kernel           string
	core, interval   int64
	phase, op, stage string
}

// simprofKeyLess mirrors the profiler's canonical bucket order.
func simprofKeyLess(a, b simprofSampleKey) bool {
	if a.kernel != b.kernel {
		return a.kernel < b.kernel
	}
	if a.core != b.core {
		return a.core < b.core
	}
	if a.interval != b.interval {
		return a.interval < b.interval
	}
	if a.phase != b.phase {
		return a.phase < b.phase
	}
	if a.op != b.op {
		return a.op < b.op
	}
	return a.stage < b.stage
}

// checkSimprof enforces the -simprof-out contract: the file decodes as a
// (gzipped) pprof profile.proto via the in-repo parser, declares exactly
// the three simprof sample types, and every sample carries the five-frame
// synthetic stack kernel → c<core>.iv<interval> → phase → op → stage with
// a known phase, a known opcode (or synthetic frame), a known pipe stage,
// matching core/interval labels, non-negative values, and canonical
// sample order. With a ledger alongside, the profiler's replay-phase
// error totals must equal the ledger's replay events exactly per
// (kernel, stage) — cycles within per-sample rounding — and likewise for
// the sampling phase against estimate events.
func checkSimprof(path, eventsPath string, allowEmpty bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	p, err := simprof.Parse(raw)
	if err != nil {
		return fmt.Errorf("not a pprof profile: %w", err)
	}
	wantTypes := []simprof.ParsedValueType{
		{Type: "sim_cycles", Unit: "cycles"},
		{Type: "replay_errors", Unit: "errors"},
		{Type: "energy_pj", Unit: "picojoules"},
	}
	if len(p.SampleTypes) != len(wantTypes) {
		return fmt.Errorf("%d sample types, want %d", len(p.SampleTypes), len(wantTypes))
	}
	for i, want := range wantTypes {
		if p.SampleTypes[i] != want {
			return fmt.Errorf("sample type %d is %s/%s, want %s/%s",
				i, p.SampleTypes[i].Type, p.SampleTypes[i].Unit, want.Type, want.Unit)
		}
	}
	if p.DefaultSampleType != "sim_cycles" {
		return fmt.Errorf("default sample type %q, want sim_cycles", p.DefaultSampleType)
	}
	if len(p.Samples) == 0 {
		if allowEmpty {
			return nil
		}
		return fmt.Errorf("profile contains no samples (pass -allow-empty if the run recorded nothing)")
	}

	phases := map[string]bool{}
	for _, ph := range simprof.Phases() {
		phases[ph] = true
	}
	ops := map[string]bool{simprof.OpStall: true, simprof.OpChaos: true}
	for op := 0; op < isa.NumOps; op++ {
		ops[isa.Op(op).String()] = true
	}
	stages := map[string]bool{}
	for _, st := range trace.Stages() {
		stages[st.String()] = true
	}

	// Per-(kernel, stage) totals for the ledger cross-check, split by phase.
	type totals struct {
		errors  int64
		cycles  float64
		samples int64
	}
	replayTot := map[[2]string]*totals{}
	samplingTot := map[[2]string]*totals{}
	var prev simprofSampleKey
	for i, s := range p.Samples {
		if len(s.Stack) != 5 {
			return fmt.Errorf("sample %d: stack depth %d, want 5 (kernel/coreiv/phase/op/stage)", i, len(s.Stack))
		}
		if len(s.Values) != len(wantTypes) {
			return fmt.Errorf("sample %d: %d values, want %d", i, len(s.Values), len(wantTypes))
		}
		for j, v := range s.Values {
			if v < 0 {
				return fmt.Errorf("sample %d: negative %s value %d", i, wantTypes[j].Type, v)
			}
		}
		k := simprofSampleKey{
			kernel:   s.Stack[4],
			core:     s.NumLabels["core"],
			interval: s.NumLabels["interval"],
			phase:    s.Stack[2],
			op:       s.Stack[1],
			stage:    s.Stack[0],
		}
		if k.kernel == "" {
			return fmt.Errorf("sample %d: empty kernel frame", i)
		}
		if !phases[k.phase] {
			return fmt.Errorf("sample %d: unknown phase %q", i, k.phase)
		}
		if !ops[k.op] {
			return fmt.Errorf("sample %d: unknown op frame %q", i, k.op)
		}
		if !stages[k.stage] {
			return fmt.Errorf("sample %d: unknown pipe stage %q", i, k.stage)
		}
		if want := fmt.Sprintf("c%d.iv%d", k.core, k.interval); s.Stack[3] != want {
			return fmt.Errorf("sample %d: core/interval frame %q does not match labels (%s)", i, s.Stack[3], want)
		}
		if i > 0 && !simprofKeyLess(prev, k) {
			return fmt.Errorf("sample %d: out of canonical order (after %+v comes %+v)", i, prev, k)
		}
		prev = k

		var tot map[[2]string]*totals
		switch k.phase {
		case simprof.PhaseReplay:
			tot = replayTot
		case simprof.PhaseSampling:
			tot = samplingTot
		default:
			continue
		}
		g := tot[[2]string{k.kernel, k.stage}]
		if g == nil {
			g = &totals{}
			tot[[2]string{k.kernel, k.stage}] = g
		}
		g.errors += s.Values[1]
		g.cycles += float64(s.Values[0])
		g.samples++
	}

	if eventsPath == "" {
		return nil
	}
	events, err := telemetry.ReadJSONLFile(eventsPath)
	if err != nil {
		return fmt.Errorf("cross-check ledger: %w", err)
	}
	type ledgerTotals struct {
		replays float64
		cycles  float64
	}
	replayLed := map[[2]string]*ledgerTotals{}
	samplingLed := map[[2]string]*ledgerTotals{}
	for _, e := range events {
		var led map[[2]string]*ledgerTotals
		var cycles float64
		switch e.Kind {
		case telemetry.KindReplay:
			led, cycles = replayLed, e.Cycles
		case telemetry.KindEstimate:
			led, cycles = samplingLed, e.SampleCycles
		default:
			continue
		}
		g := led[[2]string{e.Bench, e.Stage}]
		if g == nil {
			g = &ledgerTotals{}
			led[[2]string{e.Bench, e.Stage}] = g
		}
		g.replays += e.Replays
		g.cycles += cycles
	}
	crossCheck := func(phase string, tot map[[2]string]*totals, led map[[2]string]*ledgerTotals) error {
		groups := map[[2]string]bool{}
		for g := range tot {
			groups[g] = true
		}
		for g := range led {
			groups[g] = true
		}
		for g := range groups {
			var pErr, pSamples int64
			var pCycles float64
			if t := tot[g]; t != nil {
				pErr, pCycles, pSamples = t.errors, t.cycles, t.samples
			}
			var lReplays, lCycles float64
			if l := led[g]; l != nil {
				lReplays, lCycles = l.replays, l.cycles
			}
			if pErr != int64(math.Round(lReplays)) {
				return fmt.Errorf("%s/%s: simprof %s errors %d != ledger replays %.0f",
					g[0], g[1], phase, pErr, lReplays)
			}
			// Profile cycle values are rounded per sample; allow that plus
			// float-summation slack on the ledger side.
			tol := 0.5*float64(pSamples) + 1e-6*math.Abs(lCycles) + 1
			if math.Abs(pCycles-lCycles) > tol {
				return fmt.Errorf("%s/%s: simprof %s cycles %.1f vs ledger %.1f (tolerance %.1f)",
					g[0], g[1], phase, pCycles, lCycles, tol)
			}
		}
		return nil
	}
	if err := crossCheck("replay", replayTot, replayLed); err != nil {
		return err
	}
	return crossCheck("sampling", samplingTot, samplingLed)
}
