package service

import (
	"sync"

	"synts/internal/obs"
)

// warmCache is the repeat-tenant warm-start layer: completed solveResults
// keyed by payload digest, held in a bounded in-memory map. A repeated
// payload answers from here without a solve.
type warmCache struct {
	mu  sync.Mutex
	m   map[uint64]*solveResult
	cap int
}

// newWarmCache opens the warm layer; memCap <= 0 uses a default sized for
// CI loads.
func newWarmCache(memCap int) *warmCache {
	if memCap <= 0 {
		memCap = 4096
	}
	return &warmCache{m: make(map[uint64]*solveResult), cap: memCap}
}

// get returns the cached result for a payload digest.
func (w *warmCache) get(key uint64) (*solveResult, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	r, ok := w.m[key]
	return r, ok
}

// put records a completed result. Past the cap new entries are not cached
// (counted, never silently): a service under churn must not grow without
// bound.
func (w *warmCache) put(key uint64, r *solveResult) {
	w.mu.Lock()
	_, exists := w.m[key]
	full := len(w.m) >= w.cap
	if !exists && !full {
		w.m[key] = r
	}
	w.mu.Unlock()
	if !exists && full {
		obs.C("service.warm.evicted").Add(1)
	}
}
