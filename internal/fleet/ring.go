// Package fleet turns the single-box solver daemon of internal/service
// into a fleet that survives the loss of any one member: a router
// (`synts route`) hashes solve traffic onto N `synts serve` daemons,
// fails it over away from dead or draining backends and trips a circuit
// breaker per backend, and a client (used by `synts loadgen`) sends to
// one URL, a daemon or the router, with deadlines and retries.
//
// The design is the system-level analogue of the paper's Razor loop:
// speculate (send the request to the backend the hash picks), detect the
// mis-speculation (a refused connection, a torn response, a readiness
// probe failure), and replay elsewhere (failover to the body's next
// backend) — keeping the client-visible error rate bounded the way
// replay keeps the architectural state correct. Solve requests are pure
// functions of their payload (the service's determinism contract), so a
// replayed or retried solve is always safe.
//
// Everything here follows the repository's determinism discipline:
// placement is a pure function of the backend list, routing of a request
// is a pure function of its body bytes, and retry jitter is seeded.
package fleet

import (
	"cmp"
	"slices"
)

// Wire constants shared by the router, the client and internal/service.
// They live here (the leaf package) so service can alias them without an
// import cycle.
const (
	// SolvePath is the solve endpoint every backend and the router mount.
	SolvePath = "/v1/solve"
	// HeaderShedReason marks a 429/503 as deliberate load shedding; its
	// value is the reason (queue-full, draining, no-backends).
	HeaderShedReason = "X-Synts-Shed-Reason"
	// HeaderBackend is set by the router: the backend index that served
	// the request.
	HeaderBackend = "X-Synts-Backend"
	// HeaderFailover is set by the router when one or more backends failed
	// before the request was served; its value is the failed-hop count.
	HeaderFailover = "X-Synts-Failover"
	// ReasonDraining is a backend's orderly-shutdown shed reason: the
	// router fails such requests over instead of surfacing them.
	ReasonDraining = "draining"
	// ReasonNoBackends is the router's shed reason when no healthy,
	// breaker-admitted backend remains.
	ReasonNoBackends = "no-backends"
)

// Ring is the fleet's consistent-hash placement, by rendezvous
// (highest-random-weight) hashing: backend i's weight for a key is
// mix(BodyDigest(url_i), key), and Seq lists the backends by descending
// weight. Placement depends only on the backend URLs — never on call
// order or time — so two routers configured with the same backend list
// route every request identically. Skipping a backend moves only the
// keys it heads, each to its next backend in the order, and adding one
// moves only the keys the newcomer outweighs every other backend on.
type Ring struct {
	digests []uint64 // BodyDigest of each backend URL
}

// NewRing digests the backend URLs. Backend identity is the URL string,
// so the same list always yields the same placement.
func NewRing(backends []string) *Ring {
	r := &Ring{digests: make([]uint64, len(backends))}
	for i, b := range backends {
		r.digests[i] = BodyDigest([]byte(b))
	}
	return r
}

// Seq returns every backend index in descending weight for key: the
// key's failover order, led by the backend the key is placed on. Equal
// weights (a 2^-64 event) keep index order.
func (r *Ring) Seq(key uint64) []int {
	w := make([]uint64, len(r.digests))
	seq := make([]int, len(r.digests))
	for i, d := range r.digests {
		w[i], seq[i] = mix(d, key), i
	}
	slices.SortFunc(seq, func(a, b int) int {
		return cmp.Or(cmp.Compare(w[b], w[a]), cmp.Compare(a, b))
	})
	return seq
}

// BodyDigest is FNV-1a over a request body (or a backend URL). The
// router keys placement on it (it never needs to parse the JSON):
// identical bodies — which the seeded load generator replays and the
// service solves identically — go to the same backend.
func BodyDigest(body []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range body {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return h
}

// mix folds v into h with the splitmix64 finalizer, so a backend's
// weights for nearby keys are uncorrelated with another backend's.
func mix(h, v uint64) uint64 {
	x := h ^ (v+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
