package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A low-rate run against a healthy service must validate, succeed on
// every request, shed nothing, observe cache hits from the repeated
// payloads, and pass a generous SLO.
func TestRunLoadAgainstLiveService(t *testing.T) {
	_, srv := newTestService(t, Config{Shards: 2, QueueLen: 32})
	rep, err := RunLoad(LoadOptions{
		URL:      srv.URL,
		RPS:      200,
		Duration: 500 * time.Millisecond,
		Gen:      GenOptions{Seed: 11},
		SLO:      SLO{P95MaxMs: 5000, MaxErrorFrac: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v\n%+v", err, rep)
	}
	if rep.OK != rep.Requests || rep.Shed != 0 || rep.Errors != 0 || rep.Dropped != 0 {
		t.Errorf("healthy service run not clean: %+v", rep)
	}
	if rep.WarmHits == 0 {
		t.Errorf("repeated payloads produced no warm hits")
	}
	if !rep.SLOPass {
		t.Errorf("generous SLO failed: %+v", rep)
	}
	if rep.AchievedRPS <= 0 || rep.Latency.Max <= 0 {
		t.Errorf("implausible rate/latency: %+v", rep)
	}
}

// Against a service that sheds everything (draining), the generator must
// report sheds — not errors — and still produce a valid report.
func TestRunLoadObservesShedding(t *testing.T) {
	svc, err := New(Config{Shards: 1, QueueLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	defer func() { srv.Close(); svc.Close() }()
	svc.Drain() // every request now sheds with 503 draining

	rep, err := RunLoad(LoadOptions{
		URL:      srv.URL,
		RPS:      100,
		Duration: 200 * time.Millisecond,
		Gen:      GenOptions{Seed: 3},
		SLO:      SLO{MaxErrorFrac: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v\n%+v", err, rep)
	}
	if rep.Shed != rep.Requests || rep.OK != 0 || rep.Errors != 0 {
		t.Errorf("draining service should shed everything: %+v", rep)
	}
	// Sheds alone must not fail the error-fraction SLO.
	if !rep.SLOPass {
		t.Errorf("sheds were counted against the error SLO: %+v", rep)
	}
}

func TestLoadReportValidateRejectsBadReports(t *testing.T) {
	good := LoadReport{
		Schema: LoadSchema, Requests: 10, OK: 8, Shed: 2,
		DurationMs: 100,
		Latency:    LatencySummary{P50: 1, P95: 2, P99: 3, Max: 4},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*LoadReport)
	}{
		{"wrong schema", func(r *LoadReport) { r.Schema = "synts-load/v2" }},
		{"counts do not sum", func(r *LoadReport) { r.OK = 9 }},
		{"negative count", func(r *LoadReport) { r.Shed = -2; r.OK = 12 }},
		{"zero requests", func(r *LoadReport) { r.Requests = 0; r.OK = 0; r.Shed = 0 }},
		{"no duration", func(r *LoadReport) { r.DurationMs = 0 }},
		{"quantiles out of order", func(r *LoadReport) { r.Latency.P95 = 5 }},
		// The outcome counts sum to 2^64 + 1, which wraps to requests in int.
		{"outcome counts overflow", func(r *LoadReport) {
			*r = LoadReport{Schema: LoadSchema, Requests: 1, OK: 1 << 62, Shed: 1 << 62, ClientErrors: 1 << 62, Errors: 1<<62 + 1,
				DurationMs: 1, Latency: LatencySummary{P50: 1, P95: 1, P99: 1, Max: 1}}
		}},
	}
	for _, b := range bad {
		r := good
		b.mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validated", b.name)
		}
	}
}
