package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// FuzzSolveHandler drives /v1/solve through the real handler: one Service
// (one shard) and its mux per process, each input POSTed as the body
// through httptest. Any body answers 200, 400, 429 or 503, never 500, and
// a 200 body is a SolveResponse of ResponseSchema that echoes the
// request's tenant and seq. The seeds in testdata/fuzz/FuzzSolveHandler
// are GenStream bodies, the two bodies whose cost overflowed the solver
// before validate screened magnitudes, and boundary magnitudes (1e308,
// 5e-324, 0, -0) in theta, n, cpi_base and rates.
func FuzzSolveHandler(f *testing.F) {
	svc, err := New(Config{Shards: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		svc.Drain()
		svc.Close()
	})
	mux := http.NewServeMux()
	svc.Register(mux)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("status %d for body %s\nresponse: %s", rec.Code, body, rec.Body.Bytes())
		}
		var req SolveRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("200 for a body that does not decode (%v): %s", err, body)
		}
		var resp SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode (%v): %s", err, rec.Body.Bytes())
		}
		if resp.Schema != ResponseSchema || resp.Tenant != req.Tenant || resp.Seq != req.Seq {
			t.Fatalf("200 body has schema %q, tenant %q, seq %d; want %q, %q, %d",
				resp.Schema, resp.Tenant, resp.Seq, ResponseSchema, req.Tenant, req.Seq)
		}
	})
}

// FuzzLoadReport feeds arbitrary bytes to the reader behind obscheck
// -load: JSON-decode into a LoadReport, then Validate. No input may
// panic; an accepted report has no outcome count above requests and comes
// back equal, and still valid, through json.Marshal and Unmarshal. The
// seeds are the report of a real in-process RunLoad, its first half, and
// (testdata/fuzz/FuzzLoadReport) a report whose outcome counts sum to
// 2^64 + 1, which wrapped around int to requests and validated.
func FuzzLoadReport(f *testing.F) {
	svc, err := New(Config{Shards: 1})
	if err != nil {
		f.Fatal(err)
	}
	mux := http.NewServeMux()
	svc.Register(mux)
	srv := httptest.NewServer(mux)
	rep, err := RunLoad(LoadOptions{URL: srv.URL, RPS: 100, Duration: 100 * time.Millisecond, Gen: GenOptions{Seed: 5, Cores: 2}})
	srv.Close()
	svc.Drain()
	svc.Close()
	if err != nil {
		f.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		f.Fatalf("the seed report does not validate: %v", err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		var r LoadReport
		if json.Unmarshal(data, &r) != nil || r.Validate() != nil {
			return
		}
		for _, v := range []int{r.OK, r.Shed, r.ClientErrors, r.Errors, r.Dropped} {
			if v > r.Requests {
				t.Fatalf("accepted a report with an outcome count %d above requests = %d: %s", v, r.Requests, data)
			}
		}
		again, err := json.Marshal(&r)
		if err != nil {
			t.Fatalf("accepted report does not encode: %v", err)
		}
		var back LoadReport
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("re-encoded report does not decode (%v): %s", err, again)
		}
		if err := back.Validate(); err != nil || !reflect.DeepEqual(back, r) {
			t.Fatalf("report changed through a round trip (%v):\n%+v\n%+v", err, r, back)
		}
	})
}
