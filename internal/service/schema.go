package service

import (
	"encoding/binary"
	"fmt"
	"math"

	"synts/internal/core"
	"synts/internal/fleet"
)

// Schema identifiers. A response carries ResponseSchema so clients can
// reject payloads from a future incompatible server.
const (
	RequestSchema  = "synts-solve-req/v1"
	ResponseSchema = "synts-solve/v1"
)

// MaxCores bounds the per-request core count; the paper's platform is a
// 4-core CMP, and the solver is O(M²Q²S²) in the core count M.
const MaxCores = 16

// CoreCurve is one core's solver input: the interval's instruction count,
// base CPI, and the sampled error rate at each TSR level of the platform
// (ascending TSR order, ending at the nominal r = 1 level) — exactly what
// the paper's sampling phase measures per barrier interval.
type CoreCurve struct {
	N       float64   `json:"n"`
	CPIBase float64   `json:"cpi_base"`
	Rates   []float64 `json:"rates"`
}

// SolveRequest is one /v1/solve request body: a tenant's per-interval
// solve. Tenant and Seq identify the request (they feed the request
// digest); Stage, Theta and Cores are the solve payload proper and alone
// determine the answer.
type SolveRequest struct {
	Tenant string      `json:"tenant"`
	Seq    int         `json:"seq"`
	Stage  string      `json:"stage"`
	Theta  float64     `json:"theta"`
	Cores  []CoreCurve `json:"cores"`
}

// CoreResult is one core's assignment in a response.
type CoreResult struct {
	VIdx int     `json:"v_idx"`
	RIdx int     `json:"r_idx"`
	V    float64 `json:"v"`
	TSR  float64 `json:"tsr"`
	// Err is the error probability the solver believed at the chosen
	// point; Replays the expected Razor replay count it implies.
	Err     float64 `json:"err"`
	Replays float64 `json:"replays"`
	Energy  float64 `json:"energy"`
	Time    float64 `json:"time"`
	// Fallback carries the guard-band rejection reason when this core's
	// rates were judged implausible and the core was pinned to nominal.
	Fallback string `json:"fallback,omitempty"`
}

// solveResult is the request-independent part of an answer: a pure
// function of (stage, theta, cores). It is what the warm cache keeps; the
// response envelope (id, tenant, seq) is rebuilt per request so a warm
// start can never leak one tenant's identity into another's body.
type solveResult struct {
	Cores  []CoreResult
	Energy float64
	TExec  float64
	Cost   float64
}

// SolveResponse is one /v1/solve 200 body.
type SolveResponse struct {
	Schema string       `json:"schema"`
	ID     string       `json:"id"`
	Tenant string       `json:"tenant"`
	Seq    int          `json:"seq"`
	Stage  string       `json:"stage"`
	Theta  float64      `json:"theta"`
	Cores  []CoreResult `json:"cores"`
	Energy float64      `json:"energy"`
	TExec  float64      `json:"t_exec"`
	Cost   float64      `json:"cost"`
}

// Response headers the service sets so clients (and the load generator)
// can observe cache behaviour without it ever entering the body. The shed
// header is shared fleet-wide (router and client key on it too), so its
// definition lives in internal/fleet and is aliased here. No daemon sets
// HeaderCoalesced, since concurrent copies of one payload each solve; the
// benchmark's load client still reads it.
const (
	HeaderCoalesced  = "X-Synts-Coalesced"
	HeaderWarm       = "X-Synts-Warm" // "1": served from the warm-start cache
	HeaderShedReason = fleet.HeaderShedReason
)

// Admission/shed reasons (also the telemetry shed-event Reason values).
const (
	ShedQueueFull = "queue-full"
	ShedDraining  = fleet.ReasonDraining
	// ReasonReqDrop is the fallback-event reason for a request failed by
	// the req-drop chaos class.
	ReasonReqDrop = "req-drop"
)

// fnvOffset/fnvPrime are the FNV-1a constants; the digests below fold a
// canonical binary encoding of the request through them so a digest is a
// pure function of content — the property the chaos hooks and the
// determinism guarantee both lean on.
const (
	fnvOffset = uint64(0xcbf29ce484222325)
	fnvPrime  = uint64(0x100000001b3)
)

type digester struct{ h uint64 }

func newDigester() *digester { return &digester{h: fnvOffset} }

func (d *digester) bytes(p []byte) {
	for _, b := range p {
		d.h = (d.h ^ uint64(b)) * fnvPrime
	}
}

func (d *digester) str(s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	d.bytes(n[:])
	for i := 0; i < len(s); i++ {
		d.h = (d.h ^ uint64(s[i])) * fnvPrime
	}
}

func (d *digester) u64(v uint64) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], v)
	d.bytes(n[:])
}

func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

// payloadDigest fingerprints the solve payload only (stage, theta,
// curves) — the warm-start and shard key: two requests with equal
// payload digests have byte-identical solveResults.
func payloadDigest(r *SolveRequest) uint64 {
	d := newDigester()
	d.str(r.Stage)
	d.f64(r.Theta)
	d.u64(uint64(len(r.Cores)))
	for _, c := range r.Cores {
		d.f64(c.N)
		d.f64(c.CPIBase)
		d.u64(uint64(len(c.Rates)))
		for _, v := range c.Rates {
			d.f64(v)
		}
	}
	return d.h
}

// requestDigest fingerprints the whole request including its identity —
// the request ID in responses and the key of the per-request chaos hooks,
// so req-slow/req-drop decisions are per request, not per payload.
func requestDigest(r *SolveRequest) uint64 {
	d := newDigester()
	d.str(r.Tenant)
	d.u64(uint64(int64(r.Seq)))
	d.u64(payloadDigest(r))
	return d.h
}

// DigestID formats a digest the way responses name it: 16 lowercase hex
// digits.
func DigestID(d uint64) string { return fmt.Sprintf("%016x", d) }

// validate screens a request against the platform (one solver config per
// stage) before admission. Every curve must sample every TSR level of
// the stage. Violations are client errors (HTTP 400), distinct from
// guard-band rejections, which are service decisions about plausible-
// looking but implausible data and answer 200 with fallback cores.
func (r *SolveRequest) validate(stages map[string]*core.Config) error {
	if r.Tenant == "" {
		return fmt.Errorf("empty tenant")
	}
	if len(r.Tenant) > 64 {
		return fmt.Errorf("tenant name longer than 64 bytes")
	}
	if r.Seq < 0 {
		return fmt.Errorf("negative seq %d", r.Seq)
	}
	cfg := stages[r.Stage]
	if cfg == nil {
		return fmt.Errorf("unknown stage %q", r.Stage)
	}
	if math.IsNaN(r.Theta) || math.IsInf(r.Theta, 0) || r.Theta < 0 {
		return fmt.Errorf("theta %v: want a finite value >= 0", r.Theta)
	}
	if len(r.Cores) == 0 {
		return fmt.Errorf("no cores")
	}
	if len(r.Cores) > MaxCores {
		return fmt.Errorf("%d cores exceeds the %d-core limit", len(r.Cores), MaxCores)
	}
	for i, c := range r.Cores {
		if math.IsNaN(c.N) || math.IsInf(c.N, 0) || c.N < 0 {
			return fmt.Errorf("core %d: instruction count %v", i, c.N)
		}
		if math.IsNaN(c.CPIBase) || math.IsInf(c.CPIBase, 0) || c.CPIBase <= 0 {
			return fmt.Errorf("core %d: cpi_base %v: want > 0", i, c.CPIBase)
		}
		if len(c.Rates) != len(cfg.TSRs) {
			return fmt.Errorf("core %d: %d rates for %d TSR levels", i, len(c.Rates), len(cfg.TSRs))
		}
		// NaN/range/monotonicity implausibilities are deliberately NOT
		// rejected here: they flow to the guard band, which pins the core
		// to nominal and records a fallback event — the paper's graceful
		// degradation, observable instead of a 400.
	}
	return r.checkFinite(cfg)
}

// checkFinite rejects a request whose magnitudes overflow the solver:
// every (voltage, TSR) time and energy of every core, and the cost of
// every assignment, must be finite. The solver sees error probabilities
// in [0, 1] (the guard band pins any other curve to the pessimal one),
// and time and energy grow with the probability, so probability 1 bounds
// them all; the bound on cost is every core's largest energy plus theta
// times the largest time.
func (r *SolveRequest) checkFinite(cfg *core.Config) error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	certain := func(float64) float64 { return 1 }
	var energy, texec float64
	for i, c := range r.Cores {
		th := core.Thread{N: c.N, CPIBase: c.CPIBase, Err: certain}
		var maxE float64
		for _, v := range cfg.Voltages {
			for _, tsr := range cfg.TSRs {
				t, e := cfg.ThreadTime(th, v, tsr), cfg.ThreadEnergy(th, v, tsr)
				if !finite(t) || !finite(e) {
					return fmt.Errorf("core %d: n %v with cpi_base %v overflows the time or energy at %v V, TSR %v", i, c.N, c.CPIBase, v, tsr)
				}
				maxE = math.Max(maxE, e)
				texec = math.Max(texec, t)
			}
		}
		energy += maxE
	}
	if cost := energy + r.Theta*texec; !finite(cost) {
		return fmt.Errorf("theta %v overflows the cost of an assignment", r.Theta)
	}
	return nil
}
