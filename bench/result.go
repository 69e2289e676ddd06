package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// resultSchema tags every record written with -o.
const resultSchema = "synts-bench-result/v1"

// metric is one measured value. Percentiles also carry their sample count
// and how many samples lie beyond them.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Beyond  int     `json:"beyond,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// med sets name to the median of repeated measurements, with their count.
func (m metrics) med(name string, vs []float64, scale float64, unit string) {
	m[name] = metric{Value: median(vs) * scale, Unit: unit, Samples: len(vs)}
}

// pct sets name to the nearest-rank q-quantile of an ascending sample,
// scaled by scale, with its sample count.
func (m metrics) pct(name string, sorted []float64, q, scale float64, unit string) {
	v, beyond := quantile(sorted, q)
	m[name] = metric{Value: v * scale, Unit: unit, Samples: len(sorted), Beyond: beyond}
}

// counts classifies every operation a run attempted. The identity
// Attempted = OK + Shed + Errors + Dropped + Incorrect always holds.
type counts struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Shed      int `json:"shed"`
	Errors    int `json:"errors"`
	Dropped   int `json:"dropped"`
	Incorrect int `json:"incorrect"`
}

func (c counts) failed() int { return c.Shed + c.Errors + c.Dropped + c.Incorrect }

func (c *counts) add(o counts) {
	c.Attempted += o.Attempted
	c.OK += o.OK
	c.Shed += o.Shed
	c.Errors += o.Errors
	c.Dropped += o.Dropped
	c.Incorrect += o.Incorrect
}

func (c counts) validate() error {
	for _, v := range []int{c.Attempted, c.OK, c.Shed, c.Errors, c.Dropped, c.Incorrect} {
		if v < 0 {
			return fmt.Errorf("negative count in %+v", c)
		}
	}
	if c.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	if c.OK+c.failed() != c.Attempted {
		return fmt.Errorf("attempted %d != ok %d + shed %d + errors %d + dropped %d + incorrect %d",
			c.Attempted, c.OK, c.Shed, c.Errors, c.Dropped, c.Incorrect)
	}
	return nil
}

// result is one run's record in the -o file.
type result struct {
	Schema     string  `json:"schema"`
	Workload   string  `json:"workload"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Counts     counts  `json:"counts"`
	Metrics    metrics `json:"metrics"`
}

func (r *result) validate() error {
	if r.Schema != resultSchema {
		return fmt.Errorf("schema %q, want %q", r.Schema, resultSchema)
	}
	if err := r.Counts.validate(); err != nil {
		return fmt.Errorf("%s: %w", r.Workload, err)
	}
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, name, m.Value)
		}
	}
	return nil
}

// appendResult validates r and appends it as one JSON line to path.
func appendResult(path string, r *result) error {
	if err := r.validate(); err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readResults reads and validates every record of a -o file.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: which
// metrics a run reports, and the regression bounds compare applies.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// report selects the declared metrics from a run's measurements, checking
// that each was measured and in the declared unit.
func report(declared []metricSpec, m metrics) (map[string]metric, error) {
	out := make(map[string]metric, len(declared))
	for _, d := range declared {
		got, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if got.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, got.Unit, d.Unit)
		}
		out[d.Name] = metric{Value: got.Value, Unit: got.Unit}
	}
	return out, nil
}

// setupFloor is the absolute slack compare allows setup_s on top of its
// share bound: setup is a few milliseconds, where a share alone would
// flag scheduler noise.
const setupFloor = 0.05

// Verdicts of compare.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// row is one (workload, metric) line of a comparison.
type row struct {
	Workload, Metric string
	A, B             float64 // medians over each side's runs
	SpreadA, SpreadB float64 // IQR / median over each side's runs
	Allowed          float64 // how much worse B may be, in the metric's unit
	Verdict          string
}

// compare judges set b against set a, per workload, on every end-to-end
// metric in spec and on the failure fraction. A metric is worse when b's
// median is worse than a's by more than the bound (a share of a's median;
// setup_s also gets setupFloor). Otherwise it is unresolved when a's own
// runs spread wider than the bound — unless every b run beats every a run
// — better when b's median beats a's by more than a's interquartile range,
// and same otherwise. Any increase of the failure fraction is worse.
func compare(spec *benchSpec, a, b []result) []row {
	type key struct{ workload, metric string }
	collect := func(rs []result) (map[key][]float64, map[string]*counts) {
		vals := make(map[key][]float64)
		cnt := make(map[string]*counts)
		for _, r := range rs {
			if r.Trace {
				continue
			}
			if cnt[r.Workload] == nil {
				cnt[r.Workload] = &counts{}
			}
			cnt[r.Workload].add(r.Counts)
			for _, d := range spec.EndToEnd {
				if m, ok := r.Metrics[d.Name]; ok {
					k := key{r.Workload, d.Name}
					vals[k] = append(vals[k], m.Value)
				}
			}
		}
		return vals, cnt
	}
	va, ca := collect(a)
	vb, cb := collect(b)
	workloads := make(map[string]bool)
	for w := range ca {
		workloads[w] = true
	}
	for w := range cb {
		workloads[w] = true
	}
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)

	var rows []row
	for _, w := range names {
		for _, d := range spec.EndToEnd {
			xs, ys := va[key{w, d.Name}], vb[key{w, d.Name}]
			rw := row{Workload: w, Metric: d.Name, Verdict: unresolved}
			if len(xs) == 0 || len(ys) == 0 {
				rows = append(rows, rw)
				continue
			}
			rw.A, rw.B = median(xs), median(ys)
			rw.SpreadA, rw.SpreadB = spread(xs), spread(ys)
			rw.Allowed = d.Bound * math.Abs(rw.A)
			if d.Name == "setup_s" {
				rw.Allowed = math.Max(rw.Allowed, setupFloor)
			}
			sign := 1.0 // positive worseBy means b is worse
			if d.Better == "higher" {
				sign = -1
			}
			worseBy := sign * (rw.B - rw.A)
			q1, q3 := quartiles(xs)
			switch {
			case worseBy > rw.Allowed:
				rw.Verdict = worse
			case allBeat(ys, xs, sign):
				rw.Verdict = better
			case rw.SpreadA > d.Bound:
				rw.Verdict = unresolved
			case -worseBy > q3-q1:
				rw.Verdict = better
			default:
				rw.Verdict = same
			}
			rows = append(rows, rw)
		}
		rw := row{Workload: w, Metric: "fail_frac", Verdict: unresolved}
		if ca[w] != nil && cb[w] != nil {
			rw.A = float64(ca[w].failed()) / float64(ca[w].Attempted)
			rw.B = float64(cb[w].failed()) / float64(cb[w].Attempted)
			switch {
			case rw.B > rw.A:
				rw.Verdict = worse
			case rw.B < rw.A:
				rw.Verdict = better
			default:
				rw.Verdict = same
			}
		}
		rows = append(rows, rw)
	}
	return rows
}

// allBeat reports whether every value of ys is better than every value of
// xs, where sign is +1 when lower is better and -1 when higher is.
func allBeat(ys, xs []float64, sign float64) bool {
	worstY, bestX := math.Inf(-1), math.Inf(1)
	for _, y := range ys {
		worstY = math.Max(worstY, sign*y)
	}
	for _, x := range xs {
		bestX = math.Min(bestX, sign*x)
	}
	return worstY < bestX
}

// printRows writes a comparison table and reports whether any row is
// worse.
func printRows(w io.Writer, rows []row) (anyWorse bool) {
	fmt.Fprintf(w, "%-14s %-14s %12s %12s %8s %10s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "delta", "allowed", "A iqr", "B iqr", "verdict")
	for _, r := range rows {
		delta := "-"
		if r.A != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(r.B-r.A)/math.Abs(r.A))
		}
		allowed := fmt.Sprintf("%.4g", r.Allowed)
		if r.Metric == "fail_frac" {
			allowed = "none"
		}
		fmt.Fprintf(w, "%-14s %-14s %12.5g %12.5g %8s %10s %7.1f%% %7.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, delta, allowed, 100*r.SpreadA, 100*r.SpreadB, r.Verdict)
		if r.Verdict == worse {
			anyWorse = true
		}
	}
	return anyWorse
}
