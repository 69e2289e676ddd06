package main

// `synts trace` is the fleet-tracing analyst: it reads the per-process
// synts-trace/v1 artifacts a traced run left behind (loadgen, router,
// daemons — one JSONL each, written by -trace-dir), stitches them into
// per-request trace trees across process boundaries, and reports where
// the tail went — end-to-end quantiles decomposed into client-queue /
// retry-wait / network / router / daemon-queue / solve, the dominant p99
// contributor, and how many requests' critical paths crossed a failover
// or stepped over an open breaker. -canon prints the structural
// projection (timing stripped) two same-seed runs can be diffed on;
// -merged writes the stitched artifact obscheck -trace validates.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"synts/internal/obs"
	"synts/internal/sched"
)

func runTraceCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "read every *.trace.jsonl artifact in `dir`")
	canon := fs.Bool("canon", false, "print the structural projection (canonical order, timing stripped) instead of the report")
	merged := fs.String("merged", "", "also write the merged artifact (synts-trace/v1, canonical order) to `file`")
	top := fs.Int("top", 3, "render waterfalls for the `N` slowest traces (0 = none)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: synts trace [-dir DIR] [artifact.jsonl ...] [-canon] [-merged FILE] [-top N]\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	var spans []obs.TraceSpan
	files := 0
	if *dir != "" {
		ds, n, err := readTraceArtifacts(*dir)
		if err != nil {
			return err
		}
		spans = append(spans, ds...)
		files += n
	}
	for _, f := range fs.Args() {
		fsp, err := obs.ReadTraceFile(f)
		if err != nil {
			return err
		}
		spans = append(spans, fsp...)
		files++
	}
	if files == 0 {
		fs.Usage()
		return fmt.Errorf("no artifacts: pass -dir or artifact files")
	}

	if *canon {
		stdout.Write(obs.TraceCanon(spans))
		return nil
	}
	if *merged != "" {
		f, err := os.Create(*merged)
		if err != nil {
			return err
		}
		if err := obs.WriteTraceJSONL(f, spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	res := sched.Stitch(spans)
	rep := sched.BuildTraceReport(res)
	renderTraceReport(stdout, res, rep, files, *top)
	return nil
}

// renderTraceReport writes the aggregate view plus the slowest waterfalls.
func renderTraceReport(w io.Writer, res *sched.StitchResult, rep *sched.TraceReport, files, top int) {
	fmt.Fprintf(w, "synts trace: %d trace(s) from %d span(s) across %d artifact(s); %d orphan span(s)\n",
		rep.Traces, rep.Spans, files, rep.Orphans)
	if rep.Traces == 0 {
		return
	}
	fmt.Fprintf(w, "\ntail attribution (ms, per-hop serial components of the trace at each quantile):\n")
	fmt.Fprintf(w, "  %-4s %9s %13s %11s %9s %8s %13s %8s %14s\n",
		"q", "total", "client-queue", "retry-wait", "network", "router", "daemon-queue", "solve", "hedge-overlap")
	for _, row := range []struct {
		name string
		q    sched.TraceQuantile
	}{{"p50", rep.P50}, {"p95", rep.P95}, {"p99", rep.P99}} {
		c := row.q.TraceComponents
		fmt.Fprintf(w, "  %-4s %9.3f %13.3f %11.3f %9.3f %8.3f %13.3f %8.3f %14.3f\n",
			row.name, ms(c.TotalNs), ms(c.ClientQueueNs), ms(c.RetryWaitNs), ms(c.NetworkNs),
			ms(c.RouterNs), ms(c.DaemonQueueNs), ms(c.SolveNs), ms(c.HedgeOverlapNs))
	}
	fmt.Fprintf(w, "\ndominant p99 contributor: %s (trace %s)\n", rep.DominantP99, rep.P99.Trace)
	fmt.Fprintf(w, "traces with a failover on the critical path: %d\n", rep.FailoverTraces)
	fmt.Fprintf(w, "traces whose ring walk skipped an open breaker: %d\n", rep.BreakerSkipTraces)

	if top <= 0 {
		return
	}
	slowest := append([]*sched.TraceTree(nil), res.Trees...)
	sort.Slice(slowest, func(i, j int) bool {
		if slowest[i].Comp.TotalNs != slowest[j].Comp.TotalNs {
			return slowest[i].Comp.TotalNs > slowest[j].Comp.TotalNs
		}
		return slowest[i].Trace < slowest[j].Trace
	})
	if top > len(slowest) {
		top = len(slowest)
	}
	fmt.Fprintf(w, "\nslowest %d trace(s) (* = critical path):\n", top)
	for _, t := range slowest[:top] {
		renderWaterfall(w, t)
	}
}

// renderWaterfall draws one stitched trace as an indented timeline.
func renderWaterfall(w io.Writer, t *sched.TraceTree) {
	var notes []string
	if t.FailoverOnPath {
		notes = append(notes, "failover on critical path")
	}
	if t.BreakerSkipOnPath {
		notes = append(notes, "breaker-open skipped")
	}
	suffix := ""
	if len(notes) > 0 {
		suffix = "  [" + strings.Join(notes, ", ") + "]"
	}
	fmt.Fprintf(w, "\ntrace %s  total %.3fms%s\n", t.Trace, ms(t.Comp.TotalNs), suffix)
	const width = 32
	total := t.Root.Span.DurNs
	if total <= 0 {
		total = 1
	}
	var rec func(n *sched.TraceNode, depth int)
	rec = func(n *sched.TraceNode, depth int) {
		s := int(n.StartNs * width / total)
		e := int(n.EndNs * width / total)
		if s < 0 {
			s = 0
		}
		if s > width-1 {
			s = width - 1
		}
		if e <= s {
			e = s + 1
		}
		if e > width {
			e = width
		}
		bar := strings.Repeat(" ", s) + strings.Repeat("#", e-s) + strings.Repeat(" ", width-e)
		mark := " "
		if n.OnPath {
			mark = "*"
		}
		label := strings.Repeat("  ", depth) + n.Span.Name
		detail := n.Span.Detail
		if n.Span.Backend != "" {
			detail += " " + n.Span.Backend
		}
		fmt.Fprintf(w, "  %-30s %-8s %s|%s| %9.3fms  %s\n",
			label, n.Span.Kind, mark, bar, ms(n.Span.DurNs), strings.TrimSpace(detail))
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// readTraceArtifacts loads spans from path: a synts-trace/v1 file, or a
// directory holding per-process *.trace.jsonl artifacts. Returns the
// spans and the number of artifacts read.
func readTraceArtifacts(path string) ([]obs.TraceSpan, int, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	if !st.IsDir() {
		spans, err := obs.ReadTraceFile(path)
		if err != nil {
			return nil, 0, err
		}
		return spans, 1, nil
	}
	names, err := filepath.Glob(filepath.Join(path, "*.trace.jsonl"))
	if err != nil {
		return nil, 0, err
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, 0, fmt.Errorf("%s: no *.trace.jsonl artifacts", path)
	}
	var spans []obs.TraceSpan
	for _, name := range names {
		fsp, err := obs.ReadTraceFile(name)
		if err != nil {
			return nil, 0, err
		}
		spans = append(spans, fsp...)
	}
	return spans, len(names), nil
}

// startTraceArtifact begins one process's -trace-dir lifecycle: it
// creates dir and starts the trace collector under proc. The returned
// finish stops the collector, writes dir/<proc>.trace.jsonl and names the
// artifact on stderr. With dir empty tracing stays off and finish does
// nothing.
func startTraceArtifact(dir, cmd, proc string, stderr io.Writer) (finish func() error, err error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	obs.TraceEnable(proc)
	return func() error {
		obs.TraceDisable()
		p := filepath.Join(dir, proc+".trace.jsonl")
		if err := obs.WriteTraceFile(p); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "synts %s: trace artifact: %s\n", cmd, p)
		return nil
	}, nil
}

// traceProcName derives a per-process artifact/proc name from a bound
// listen address ("serve", "127.0.0.1:9200" → "serve-127-0-0-1-9200"),
// keeping the artifact filename shell- and filesystem-safe. It must be
// the bound address, not the -addr flag: daemons started on port 0 would
// otherwise share one name, overwrite each other's artifact and collide
// on the proc key the stitcher aligns clocks by.
func traceProcName(prefix, addr string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, addr)
	return prefix + "-" + mapped
}
