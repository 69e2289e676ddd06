package service

import (
	"encoding/json"
	"math"
	"sync"

	"synts/internal/ckpt"
	"synts/internal/obs"
)

// warmCache is the repeat-tenant warm-start layer: completed solveResults
// keyed by payload digest, held in a bounded in-memory map and (when a
// warm dir is configured) persisted through the internal/ckpt store so a
// restarted daemon starts warm. The ckpt Key fingerprints the solver grid
// (stages, voltage/TSR tables, penalty), so a warm dir written by a
// server with a different platform is ignored entry by entry rather than
// trusted — the same stale-directory defence the batch resume path has.
type warmCache struct {
	mu    sync.Mutex
	m     map[uint64]*solveResult
	cap   int
	store *ckpt.Store // nil = memory only
	// voltages and levels are the platform's table sizes: every v_idx and
	// r_idx of a blob read from the store must index them.
	voltages, levels int
}

// newWarmCache opens the warm layer. dir == "" keeps it memory-only;
// memCap <= 0 uses a default sized for CI loads.
func newWarmCache(dir string, memCap int, gridKey ckpt.Key, voltages, levels int) (*warmCache, error) {
	if memCap <= 0 {
		memCap = 4096
	}
	w := &warmCache{m: make(map[uint64]*solveResult), cap: memCap, voltages: voltages, levels: levels}
	if dir != "" {
		st, err := ckpt.Open(dir, gridKey)
		if err != nil {
			return nil, err
		}
		w.store = st
	}
	return w, nil
}

// entryName is the ckpt experiment name for a payload digest.
func entryName(key uint64) string { return "solve-" + DigestID(key) }

// persisted counts the usable on-disk entries (startup logging).
func (w *warmCache) persisted() int {
	if w.store == nil {
		return 0
	}
	return len(w.store.Names())
}

// get returns the cached result for a payload digest of a request with
// the given core count, consulting memory first and the ckpt store
// second. The warm dir may be shared by several daemons (two `synts
// serve` processes behind the router), so nothing read from disk is
// trusted: a torn, foreign or implausible blob, or one that does not fit
// the request it is filed under, is rejected entry by entry — counted in
// service.warm.rejected, never served, never fatal — and only a fully
// validated result is promoted into memory.
// Writes are tmp-then-rename atomic, so a sharer normally only ever sees
// whole entries; the read-side checks are the defence for everything
// abnormal (crashed writers, stray files, torn or corrupted bytes).
func (w *warmCache) get(key uint64, cores int) (*solveResult, bool) {
	w.mu.Lock()
	r, ok := w.m[key]
	w.mu.Unlock()
	if ok {
		return r, true
	}
	if w.store == nil {
		return nil, false
	}
	raw, ok, err := w.store.LoadChecked(entryName(key))
	if err != nil {
		obs.C("service.warm.rejected").Add(1)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	var res solveResult
	if err := json.Unmarshal(raw, &res); err != nil || !w.valid(&res, cores) {
		obs.C("service.warm.rejected").Add(1)
		return nil, false
	}
	w.put(key, &res)
	return &res, true
}

// valid screens a deserialised solveResult before it may answer a
// request with the given core count: the schema tag, one core per
// request core, every v_idx and r_idx inside the platform tables, and
// finite non-negative aggregates. It rejects blobs that parse as JSON but
// are not a plausible answer to the request (a foreign writer's file that
// happens to unmarshal, or a prefix that survived truncation inside a
// string); the ledger and the response index the cores by request core.
func (w *warmCache) valid(r *solveResult, cores int) bool {
	if r.Schema != ResultSchema || len(r.Cores) != cores {
		return false
	}
	for _, v := range []float64{r.Energy, r.TExec, r.Cost} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false
		}
	}
	for _, c := range r.Cores {
		if c.VIdx < 0 || c.VIdx >= w.voltages || c.RIdx < 0 || c.RIdx >= w.levels {
			return false
		}
		for _, v := range []float64{c.V, c.TSR, c.Err, c.Replays, c.Energy, c.Time} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return false
			}
		}
	}
	return true
}

// put records a completed result. Past the in-memory cap new entries are
// not cached (counted, never silently) — a service under churn must not
// grow without bound; the disk store still takes the entry, so a restart
// can recover it. Save errors (disk full, injected ckpt-write-fail chaos)
// are counted and swallowed: warm start is an optimisation, not
// correctness.
func (w *warmCache) put(key uint64, r *solveResult) {
	w.mu.Lock()
	_, exists := w.m[key]
	full := len(w.m) >= w.cap
	if !exists && !full {
		w.m[key] = r
	}
	w.mu.Unlock()
	if exists {
		return
	}
	if full {
		obs.C("service.warm.evicted").Add(1)
	}
	if w.store != nil {
		raw, err := json.Marshal(r)
		if err == nil {
			err = w.store.Save(entryName(key), raw)
		}
		if err != nil {
			obs.C("service.warm.save_errors").Add(1)
		}
	}
}
