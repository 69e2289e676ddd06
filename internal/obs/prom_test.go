package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestWritePrometheusValidates populates a registry with every metric kind
// the bridge emits — including names and label values that need
// sanitising/escaping — and checks the payload passes the in-repo grammar
// validator and contains each expected family.
func TestWritePrometheusValidates(t *testing.T) {
	r := NewRegistry()
	r.Counter("pool.tasks").Add(3)
	r.Counter("exp.benchcache.hits").Add(1)
	r.Gauge("telemetry.events").Set(42.5)
	for i := 0; i < 100; i++ {
		r.Histogram("pool.queue_wait_ns").Observe(float64(i * 1000))
	}
	r.Histogram("exp.solve:SynTS").Observe(5000)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	if err := ValidatePrometheusText(payload); err != nil {
		t.Fatalf("bridge output fails its own validator: %v\npayload:\n%s", err, payload)
	}
	for _, want := range []string{
		"# TYPE synts_pool_tasks_total counter",
		"synts_pool_tasks_total 3",
		"# TYPE synts_telemetry_events gauge",
		"synts_telemetry_events 42.5",
		"# TYPE synts_pool_queue_wait_ns summary",
		`synts_pool_queue_wait_ns{quantile="0.5"}`,
		"synts_pool_queue_wait_ns_sum",
		"synts_pool_queue_wait_ns_count 100",
		"# TYPE synts_exp_solve_SynTS summary",
		"synts_exp_solve_SynTS_count 1",
	} {
		if !strings.Contains(string(payload), want) {
			t.Errorf("payload missing %q", want)
		}
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		r.Counter("b.counter").Add(2)
		r.Counter("a.counter").Add(1)
		r.Gauge("z.gauge").Set(1)
		r.Gauge("a.gauge").Set(2)
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("two identical registries produced different payloads")
	}
}

func TestValidatePrometheusTextRejects(t *testing.T) {
	cases := []struct {
		name    string
		payload string
	}{
		{"empty payload", ""},
		{"no type declaration", "synts_x_total 1\n"},
		{"malformed TYPE", "# TYPE synts_x\nsynts_x 1\n"},
		{"bad metric type", "# TYPE synts_x widget\nsynts_x 1\n"},
		{"bad metric name", "# TYPE 9bad counter\n9bad 1\n"},
		{"duplicate TYPE", "# TYPE synts_x counter\n# TYPE synts_x counter\nsynts_x 1\n"},
		{"undeclared sample", "# TYPE synts_x counter\nsynts_y 1\n"},
		{"bad sample value", "# TYPE synts_x counter\nsynts_x one\n"},
		{"bad timestamp", "# TYPE synts_x counter\nsynts_x 1 soon\n"},
		{"missing value", "# TYPE synts_x counter\nsynts_x\n"},
		{"bad label name", "# TYPE synts_x counter\nsynts_x{9l=\"v\"} 1\n"},
		{"unquoted label value", "# TYPE synts_x counter\nsynts_x{l=v} 1\n"},
		{"unterminated label value", "# TYPE synts_x counter\nsynts_x{l=\"v} 1\n"},
		{"bad escape", "# TYPE synts_x counter\nsynts_x{l=\"\\t\"} 1\n"},
		{"bucket on non-histogram", "# TYPE synts_x summary\nsynts_x_bucket{le=\"1\"} 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidatePrometheusText([]byte(tc.payload)); err == nil {
				t.Fatalf("validator accepted bad payload:\n%s", tc.payload)
			}
		})
	}
}

func TestValidatePrometheusTextAccepts(t *testing.T) {
	payload := strings.Join([]string{
		"# HELP synts_x a counter with help",
		"# TYPE synts_x counter",
		`synts_x{a="1",b="two \"quoted\", backslash \\"} 3`,
		"synts_x_total 4 1700000000",
		"# TYPE synts_h histogram",
		`synts_h_bucket{le="+Inf"} 7`,
		"synts_h_sum 12.5",
		"synts_h_count 7",
		"# TYPE synts_g gauge",
		"synts_g NaN",
		"",
	}, "\n")
	if err := ValidatePrometheusText([]byte(payload)); err != nil {
		t.Fatalf("validator rejected good payload: %v", err)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"pool.tasks":     "synts_pool_tasks",
		"exp.solve:X":    "synts_exp_solve_X",
		"already_ok":     "synts_already_ok",
		"weird-éX":       "synts_weird__X",
		"trace.build/42": "synts_trace_build_42",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
