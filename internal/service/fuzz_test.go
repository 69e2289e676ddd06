package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
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
