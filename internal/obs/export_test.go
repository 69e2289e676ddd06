package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The snapshot must round-trip through JSON with the documented schema
// keys — the contract the -stats-json consumers (CI's obscheck, future
// dashboards) parse against.
func TestSnapshotJSONSchema(t *testing.T) {
	r := NewRegistry()
	r.Counter("exp.benchcache.hit").Add(3)
	r.Counter("exp.benchcache.miss").Add(1)
	r.Histogram("pool.queue_wait_ns").Observe(1500)

	s := r.Snapshot()
	s.AddDerived("exp.benchcache.hit_ratio", s.Ratio("exp.benchcache.hit", "exp.benchcache.hit", "exp.benchcache.miss"))

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for _, key := range []string{"timestamp", "gomaxprocs", "counters", "gauges", "histograms", "derived"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("snapshot JSON missing top-level key %q", key)
		}
	}
	if _, ok := decoded["spans"]; ok {
		t.Error("snapshot JSON has a spans key; region timings are histograms")
	}
	var hists map[string]HistSummary
	if err := json.Unmarshal(decoded["histograms"], &hists); err != nil {
		t.Fatal(err)
	}
	h, ok := hists["pool.queue_wait_ns"]
	if !ok {
		t.Fatal("histograms missing pool.queue_wait_ns")
	}
	if h.Count != 1 || h.P95 <= 0 {
		t.Errorf("queue-wait summary = %+v, want count 1 and positive p95", h)
	}
	var derived map[string]float64
	if err := json.Unmarshal(decoded["derived"], &derived); err != nil {
		t.Fatal(err)
	}
	if got := derived["exp.benchcache.hit_ratio"]; got != 0.75 {
		t.Errorf("hit ratio = %v, want 0.75", got)
	}
}

func TestSnapshotRatioZeroDenominator(t *testing.T) {
	s := NewRegistry().Snapshot()
	if got := s.Ratio("a", "b", "c"); got != 0 {
		t.Errorf("ratio with zero denominator = %v, want 0", got)
	}
}

func TestWriteTableMentionsSections(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	r.Histogram("h").Observe(10e3)
	s := r.Snapshot()
	s.AddDerived("d", 0.5)
	var buf bytes.Buffer
	s.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"counters:", "histograms", "sum=10µs", "derived:", "GOMAXPROCS"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats table missing %q:\n%s", want, out)
		}
	}
}
