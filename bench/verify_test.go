package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"synts/internal/fleet"
	"synts/internal/service"
)

func TestVerifierAcceptsServiceBodiesAndRejectsTamperedOnes(t *testing.T) {
	svc, err := service.New(service.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		svc.Drain()
		svc.Close()
	}()
	mux := http.NewServeMux()
	svc.Register(mux)

	// Half the payloads repeat, so warm-cache answers are checked too; the
	// generator poisons about 2% of curves, so fallback cores show up.
	reqs, bodies, err := serviceSpec{repeat: 0.5}.stream(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	v := newVerifier()
	fallbacks := 0
	var last []byte
	for i := range reqs {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, fleet.SolvePath, bytes.NewReader(bodies[i])))
		if rr.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rr.Code, rr.Body)
		}
		if err := v.check(&reqs[i], rr.Body.Bytes()); err != nil {
			t.Fatalf("request %d: real body rejected: %v", i, err)
		}
		fallbacks += bytes.Count(rr.Body.Bytes(), []byte(`"fallback"`))
		last = rr.Body.Bytes()
	}
	if fallbacks == 0 {
		t.Error("no fallback core in 200 requests: the guard-band path went unchecked")
	}

	tamper := func(name string, edit func(*service.SolveResponse)) {
		var resp service.SolveResponse
		if err := json.Unmarshal(last, &resp); err != nil {
			t.Fatal(err)
		}
		edit(&resp)
		b, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.check(&reqs[len(reqs)-1], b); err == nil {
			t.Errorf("%s: tampered body accepted", name)
		}
	}
	tamper("r_idx", func(r *service.SolveResponse) { r.Cores[1].RIdx = (r.Cores[1].RIdx + 1) % 6 })
	tamper("cost", func(r *service.SolveResponse) { r.Cost *= 1 + 1e-12 })
	tamper("seq", func(r *service.SolveResponse) { r.Seq++ })
	tamper("id", func(r *service.SolveResponse) { r.ID = "0000000000000000" })
}
