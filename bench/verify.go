package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"synts/internal/core"
	"synts/internal/exp"
	"synts/internal/service"
	"synts/internal/trace"
)

// verifier re-derives /v1/solve answers through the public solve path —
// exp.Platform, GuardPolicy.Check, SolvePoly, Config.Evaluate — and checks
// response bodies against them. Not safe for concurrent use.
type verifier struct {
	platforms map[string]*core.Config
	guard     core.GuardPolicy
}

func newVerifier() *verifier {
	v := &verifier{platforms: make(map[string]*core.Config)}
	for _, st := range trace.Stages() {
		v.platforms[st.String()] = exp.Platform(st, exp.DefaultOptions())
	}
	return v
}

// threads builds a request's solver inputs the way the daemon does: a
// core whose rates fail the guard band solves with the pessimal error
// function. It also returns each core's guard rejection reason ("" if
// admitted).
func (v *verifier) threads(r *service.SolveRequest) (*core.Config, []core.Thread, []string, error) {
	cfg, ok := v.platforms[r.Stage]
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown stage %q", r.Stage)
	}
	ths := make([]core.Thread, len(r.Cores))
	reasons := make([]string, len(r.Cores))
	for i, c := range r.Cores {
		if len(c.Rates) != len(cfg.TSRs) {
			return nil, nil, nil, fmt.Errorf("core %d: %d rates for %d TSR levels", i, len(c.Rates), len(cfg.TSRs))
		}
		ths[i] = core.Thread{N: c.N, CPIBase: c.CPIBase, Err: core.PessimalErr}
		if reasons[i] = v.guard.Check(cfg, c.Rates); reasons[i] == "" {
			ths[i].Err = core.EstimatedErrFunc(cfg, c.Rates)
		}
	}
	return cfg, ths, reasons, nil
}

// check verifies one 200 body: the schema, the id/tenant/seq envelope, and
// per core the V and TSR indices and fallback reason, plus the cost, all
// bit-equal to the re-derived answer.
func (v *verifier) check(r *service.SolveRequest, body []byte) error {
	var got service.SolveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if got.Schema != service.ResponseSchema {
		return fmt.Errorf("schema %q, want %q", got.Schema, service.ResponseSchema)
	}
	if id := requestID(r); got.ID != id || got.Tenant != r.Tenant || got.Seq != r.Seq {
		return fmt.Errorf("envelope id=%s tenant=%s seq=%d, want id=%s tenant=%s seq=%d",
			got.ID, got.Tenant, got.Seq, id, r.Tenant, r.Seq)
	}
	cfg, ths, reasons, err := v.threads(r)
	if err != nil {
		return err
	}
	a, _ := core.SolvePoly(cfg, ths, r.Theta)
	for i, reason := range reasons {
		if reason != "" {
			a.VIdx[i], a.RIdx[i] = 0, len(cfg.TSRs)-1 // fallback cores run at nominal
		}
	}
	if len(got.Cores) != len(ths) {
		return fmt.Errorf("%d cores, want %d", len(got.Cores), len(ths))
	}
	for i, c := range got.Cores {
		if c.VIdx != a.VIdx[i] || c.RIdx != a.RIdx[i] || c.Fallback != reasons[i] {
			return fmt.Errorf("core %d: v_idx=%d r_idx=%d fallback=%q, want %d %d %q",
				i, c.VIdx, c.RIdx, c.Fallback, a.VIdx[i], a.RIdx[i], reasons[i])
		}
	}
	if want := cfg.Evaluate(ths, a, r.Theta).Cost; math.Float64bits(got.Cost) != math.Float64bits(want) {
		return fmt.Errorf("cost %v, want %v", got.Cost, want)
	}
	return nil
}

// requestID is the response id the daemon must return for r: FNV-1a over
// the tenant (length-prefixed), the seq and the payload digest, each
// little-endian; the payload digest is FNV-1a over the stage, theta and
// every core's n, cpi_base and rates, with counts as length prefixes.
func requestID(r *service.SolveRequest) string {
	payload := fnv.New64a()
	putStr(payload, r.Stage)
	putU64(payload, math.Float64bits(r.Theta))
	putU64(payload, uint64(len(r.Cores)))
	for _, c := range r.Cores {
		putU64(payload, math.Float64bits(c.N))
		putU64(payload, math.Float64bits(c.CPIBase))
		putU64(payload, uint64(len(c.Rates)))
		for _, v := range c.Rates {
			putU64(payload, math.Float64bits(v))
		}
	}
	h := fnv.New64a()
	putStr(h, r.Tenant)
	putU64(h, uint64(int64(r.Seq)))
	putU64(h, payload.Sum64())
	return service.DigestID(h.Sum64())
}

func putU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:]) // hash writes never fail
}

func putStr(h hash.Hash64, s string) {
	putU64(h, uint64(len(s)))
	h.Write([]byte(s))
}
