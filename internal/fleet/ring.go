// Package fleet turns the single-box solver daemon of internal/service
// into a fleet that survives the loss of any one member: a consistent-hash
// router (`synts route`) spreads solve traffic over N `synts serve`
// daemons, remaps it away from dead or draining backends and trips a
// circuit breaker per backend, and a client (used by `synts loadgen`)
// sends to one URL, a daemon or the router, with deadlines and retries.
//
// The design is the system-level analogue of the paper's Razor loop:
// speculate (send the request to the backend the hash picks), detect the
// mis-speculation (a refused connection, a torn response, a readiness
// probe failure), and replay elsewhere (failover to the next backend on
// the ring) — keeping the client-visible error rate bounded the way
// replay keeps the architectural state correct. Solve requests are pure
// functions of their payload (the service's determinism contract), so a
// replayed or retried solve is always safe and, thanks to coalescing and
// warm starts, usually cheap.
//
// Everything here follows the repository's determinism discipline: ring
// placement is a pure function of the backend list, routing of a request
// is a pure function of its body bytes, and retry and probe jitter are
// seeded.
package fleet

import "sort"

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

// defaultReplicas is the virtual-node count per backend. 64 points per
// backend keeps the load split within a few percent of even for small
// fleets while the ring stays tiny (N*64 points).
const defaultReplicas = 64

// ringPoint is one virtual node: a hash position owned by a backend.
type ringPoint struct {
	h   uint64
	idx int
}

// Ring is a consistent-hash ring over backend indices. Placement depends
// only on the backend name list and the replica count — never on call
// order or time — so two routers configured with the same backend set
// route every request identically, and adding or removing one backend
// moves only ~1/N of the keyspace.
type Ring struct {
	points []ringPoint
	n      int
}

// NewRing places replicas virtual nodes per backend (replicas <= 0 uses
// the default). Backend identity is the name string, so the same list
// always yields the same ring.
func NewRing(backends []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	r := &Ring{n: len(backends), points: make([]ringPoint, 0, len(backends)*replicas)}
	for i, b := range backends {
		h := stringDigest(b)
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{h: mix(h, uint64(v)), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].h != r.points[b].h {
			return r.points[a].h < r.points[b].h
		}
		return r.points[a].idx < r.points[b].idx
	})
	return r
}

// start returns the index into points of the first virtual node at or
// after key, wrapping at the top of the ring.
func (r *Ring) start(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= key })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Pick maps key to a backend, skipping backends ok rejects (nil accepts
// all). Walking the ring past a rejected backend is the deterministic
// remap: every router holding the same ring and the same health view
// sends the key to the same survivor. Returns -1 when ok rejects every
// backend.
func (r *Ring) Pick(key uint64, ok func(int) bool) int {
	if len(r.points) == 0 {
		return -1
	}
	seen := make([]bool, r.n)
	left := r.n
	for i := r.start(key); left > 0; i = (i + 1) % len(r.points) {
		idx := r.points[i].idx
		if seen[idx] {
			continue
		}
		seen[idx] = true
		left--
		if ok == nil || ok(idx) {
			return idx
		}
	}
	return -1
}

// Seq returns every backend index in ring-walk order from key: the
// failover order for the key. Seq(key)[0] == Pick(key, nil).
func (r *Ring) Seq(key uint64) []int {
	if len(r.points) == 0 {
		return nil
	}
	seq := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i := r.start(key); len(seq) < r.n; i = (i + 1) % len(r.points) {
		idx := r.points[i].idx
		if !seen[idx] {
			seen[idx] = true
			seq = append(seq, idx)
		}
	}
	return seq
}

// stringDigest is FNV-1a over s.
func stringDigest(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

// BodyDigest fingerprints a request body. The router keys its ring on
// this (it never needs to parse the JSON): identical bodies — which the
// seeded load generator replays and the service solves identically — hash
// to the same backend.
func BodyDigest(body []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range body {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return h
}

// mix folds v into h with the splitmix64 finalizer, spreading FNV's
// clustered vnode hashes uniformly around the ring.
func mix(h, v uint64) uint64 {
	x := h ^ (v+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
