package service

import (
	"math"
	"math/rand"

	"synts/internal/exp"
	"synts/internal/trace"
	"synts/internal/workload"
)

// genCores is every generated request's core count: the paper's 4-core
// CMP.
const genCores = 4

// GenOptions seeds the deterministic request generator.
type GenOptions struct {
	// Seed fixes the whole stream: same seed, same n → identical requests.
	Seed int64
	// RepeatFrac is the probability a request reuses an earlier payload
	// under a fresh seq — the knob that exercises warm starts; 0 means
	// the 0.25 default, < 0 disables repeats.
	RepeatFrac float64
}

// GenStream deterministically generates n solve requests: the synthetic
// per-interval solver inputs the load generator replays and the
// determinism tests replay twice. Requests rotate round-robin over the
// ten suite kernels as tenants and carry genCores cores each;
// seq increases per tenant; stages and thetas vary per request; error
// curves are plausible (monotone non-increasing in TSR, zero at the
// nominal level) so they pass the guard band and exercise the real
// solver, with an occasional out-of-range curve to exercise the fallback
// path. Each curve samples every level of the platform's exp.TSRs()
// grid, the rate count a daemon accepts.
func GenStream(opts GenOptions, n int) []SolveRequest {
	rng := rand.New(rand.NewSource(opts.Seed))
	tenants := workload.FullSuite()
	levels := len(exp.TSRs())
	repeat := opts.RepeatFrac
	if repeat == 0 {
		repeat = 0.25
	} else if repeat < 0 {
		repeat = 0
	}
	stages := trace.Stages()
	seqs := make(map[string]int, len(tenants))
	reqs := make([]SolveRequest, 0, n)
	// past holds reusable payloads: everything except tenant/seq.
	type payload struct {
		stage string
		theta float64
		cores []CoreCurve
	}
	var past []payload
	for i := 0; i < n; i++ {
		tenant := tenants[i%len(tenants)]
		seq := seqs[tenant]
		seqs[tenant] = seq + 1
		var p payload
		if len(past) > 0 && rng.Float64() < repeat {
			p = past[rng.Intn(len(past))]
		} else {
			p.stage = stages[rng.Intn(len(stages))].String()
			p.theta = math.Round(rng.Float64()*2000) / 1000 // [0, 2], 3 decimals
			p.cores = make([]CoreCurve, genCores)
			for c := range p.cores {
				p.cores[c] = genCurve(rng, levels)
			}
			past = append(past, p)
		}
		reqs = append(reqs, SolveRequest{
			Tenant: tenant,
			Seq:    seq,
			Stage:  p.stage,
			Theta:  p.theta,
			Cores:  p.cores,
		})
	}
	return reqs
}

// genCurve draws one core's solver input. About 2% of curves are
// poisoned with out-of-range rates (> 1; NaN would not survive the JSON
// wire format) so streams exercise the guard-band fallback; the rest
// decay monotonically from a random peak at the most aggressive TSR down
// to exactly zero at nominal, the shape real sampling produces.
func genCurve(rng *rand.Rand, levels int) CoreCurve {
	cc := CoreCurve{
		N:       math.Round(1e4 + rng.Float64()*9e4),
		CPIBase: 1 + math.Round(rng.Float64()*1000)/1000,
		Rates:   make([]float64, levels),
	}
	if rng.Float64() < 0.02 {
		for k := range cc.Rates {
			cc.Rates[k] = 1.5
		}
		return cc
	}
	peak := rng.Float64() * 0.5
	for k := range cc.Rates {
		frac := float64(k) / float64(levels-1) // 0 at aggressive, 1 at nominal
		r := peak * math.Pow(1-frac, 2+rng.Float64())
		cc.Rates[k] = math.Round(r*1e6) / 1e6
	}
	cc.Rates[levels-1] = 0
	return cc
}
