package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testSpec = &benchSpec{EndToEnd: []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
	{Name: "rps", Unit: "1/s", Better: "higher", Bound: 0.1},
}}

// runs builds one untraced record per value of metric.
func runs(workload, metric string, failed int, vals ...float64) []result {
	var out []result
	for _, v := range vals {
		out = append(out, result{
			Schema: resultSchema, Workload: workload,
			Counts:  counts{Attempted: 100, OK: 100 - failed, Errors: failed},
			Metrics: metrics{metric: {Value: v}},
		})
	}
	return out
}

func verdict(t *testing.T, rows []row, metric string) string {
	t.Helper()
	for _, r := range rows {
		if r.Metric == metric {
			return r.Verdict
		}
	}
	t.Fatalf("no %s row in %+v", metric, rows)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	for _, c := range []struct {
		name   string
		metric string
		a, b   []float64
		want   string
	}{
		{"worse beyond the bound", "p50_ms", steady, []float64{1.15, 1.16, 1.14, 1.15}, worse},
		{"within the bound", "p50_ms", steady, []float64{1.03, 1.02, 1.04, 1.03}, same},
		{"better beyond the spread", "p50_ms", steady, []float64{0.90, 0.91, 0.89, 0.9}, better},
		{"noisy parent", "p50_ms", []float64{0.6, 1.4, 1.0, 0.8, 1.2}, []float64{0.9, 1.05, 0.95}, unresolved},
		{"noisy parent, every run beaten", "p50_ms", []float64{0.6, 1.4, 1.0, 0.8, 1.2}, []float64{0.5, 0.55}, better},
		{"higher is better", "rps", []float64{100, 101, 99}, []float64{80, 81, 79}, worse},
		{"setup inside the absolute floor", "setup_s", []float64{0.010, 0.011, 0.009}, []float64{0.030, 0.031, 0.029}, same},
		{"setup past the absolute floor", "setup_s", []float64{0.010, 0.011, 0.009}, []float64{0.070, 0.071, 0.069}, worse},
		{"setup past the share bound", "setup_s", []float64{1.0, 1.01, 0.99}, []float64{1.3, 1.31, 1.29}, worse},
	} {
		rows := compare(testSpec, runs("w", c.metric, 0, c.a...), runs("w", c.metric, 0, c.b...))
		if got := verdict(t, rows, c.metric); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	missing := compare(testSpec, runs("w", "p50_ms", 0, 1), runs("w", "setup_s", 0, 1))
	if got := verdict(t, missing, "p50_ms"); got != unresolved {
		t.Errorf("metric missing on one side: %s, want unresolved", got)
	}
}

func TestCompareFailFracAnyIncrease(t *testing.T) {
	for _, c := range []struct {
		a, b int
		want string
	}{
		{0, 0, same},
		{0, 1, worse},
		{2, 3, worse},
		{2, 1, better},
	} {
		rows := compare(testSpec, runs("w", "p50_ms", c.a, 1, 1), runs("w", "p50_ms", c.b, 1, 1))
		if got := verdict(t, rows, "fail_frac"); got != c.want {
			t.Errorf("failed %d -> %d: %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestResultCountIdentityCheckedOnWriteAndRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.jsonl")
	good := runs("w", "p50_ms", 1, 1)[0]
	if err := appendResult(path, &good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Counts.Shed = 3 // attempted no longer adds up
	if err := appendResult(path, &bad); err == nil {
		t.Error("appendResult accepted a broken count identity")
	}
	if rs, err := readResults(path); err != nil || len(rs) != 1 {
		t.Fatalf("readResults = %d records, %v", len(rs), err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"schema":"` + resultSchema + `","workload":"w","counts":{"attempted":5,"ok":4}}` + "\n")
	f.Close()
	if _, err := readResults(path); err == nil || !strings.Contains(err.Error(), "attempted 5") {
		t.Errorf("readResults on a broken identity: %v", err)
	}
}
