package obs

import (
	"sync/atomic"
	"time"
)

// Span is a scoped timer. StartSpan opens it, End closes and records it.
// Spans nest: Child opens a sub-span that inherits the parent's trace row
// (TID). Spans from worker pools carry an explicit TID (one Chrome-trace
// row per pool worker); spans opened without an explicit TID record the
// goroutine they started on, and the export attaches them to the
// explicit-TID span sharing that goroutine (their worker) — or to a row
// of their own when the goroutine never carried one — so deep callees
// never need to thread a span handle through their signatures.
//
// Beyond the parent/child tree, spans carry two kinds of explicit DAG
// edges for the internal/sched analyzer:
//
//   - Deps (DependsOn) are happens-before ordering edges: this span's work
//     logically follows the dependency's work. trace.BuildProfiles links
//     each (thread, interval) build to the same thread's previous interval,
//     so the per-thread program-order chains — and with them the critical
//     path of the execution DAG — survive into the span records even though
//     the scheduler runs the intervals concurrently.
//   - Submitter is an attribution edge: for a pool task, the span that was
//     active on the submitting goroutine when the task was enqueued. It
//     answers "which pipeline stage asked for this work" without implying
//     any ordering (the submitting span usually outlives the task).
type Span struct {
	r      *Registry
	name   string
	start  time.Time
	id     int64
	parent int64
	tid    int   // -1 = unassigned (resolved at export)
	gid    int64 // goroutine the span started on

	submitter int64
	deps      []int64
}

// SpanRecord is one completed span as stored in the registry.
type SpanRecord struct {
	Name    string
	ID      int64
	Parent  int64 // 0 = no explicit parent
	TID     int   // -1 = unassigned
	Gid     int64 // goroutine id at StartSpan (0 = unknown)
	StartNs int64 // relative to the registry epoch
	DurNs   int64
	// Submitter is the span active on the goroutine that submitted this
	// work (pool tasks); 0 = none recorded.
	Submitter int64
	// Deps are explicit happens-before edges: IDs of spans whose work this
	// span logically depends on (see Span.DependsOn).
	Deps []int64
}

var spanIDs atomic.Int64

// ReserveSpanID allocates a span ID without starting a span, so callers
// can wire dependency edges between spans that have not started yet (the
// per-interval ordering edges in trace.BuildProfiles reserve the whole
// grid up front). Returns 0 while instrumentation is disabled; a reserved
// ID is spent by passing it to StartSpanID.
func ReserveSpanID() int64 {
	if !enabled.Load() {
		return 0
	}
	return spanIDs.Add(1)
}

// StartSpan opens a span on the default registry; returns nil (safe to use)
// while instrumentation is disabled.
func StartSpan(name string) *Span {
	if !enabled.Load() {
		return nil
	}
	return defaultRegistry.StartSpan(name)
}

// StartSpanID is StartSpan with a pre-reserved ID (see ReserveSpanID);
// id <= 0 allocates a fresh one. Nil while instrumentation is disabled.
func StartSpanID(name string, id int64) *Span {
	if !enabled.Load() {
		return nil
	}
	return defaultRegistry.StartSpanID(name, id)
}

// StartSpan opens a span on r.
func (r *Registry) StartSpan(name string) *Span {
	return r.StartSpanID(name, 0)
}

// StartSpanID opens a span on r under a pre-reserved ID (id <= 0
// allocates a fresh one).
func (r *Registry) StartSpanID(name string, id int64) *Span {
	if id <= 0 {
		id = spanIDs.Add(1)
	}
	s := &Span{r: r, name: name, start: time.Now(), id: id, tid: -1, gid: curGoroutineID()}
	r.pushActive(s.gid, s.id)
	return s
}

// ID returns the span's identifier (0 on nil), usable as a DependsOn or
// Submitter target.
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Child opens a nested span inheriting the parent's TID; nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.r.StartSpan(name)
	c.parent = s.id
	c.tid = s.tid
	return c
}

// SetTID pins the span to a Chrome-trace row (see NextTIDBlock); nil-safe.
func (s *Span) SetTID(tid int) {
	if s == nil {
		return
	}
	s.tid = tid
}

// SetSubmitter records the attribution edge to the span that submitted
// this work; nil-safe, 0 is a no-op.
func (s *Span) SetSubmitter(id int64) {
	if s == nil || id == 0 {
		return
	}
	s.submitter = id
}

// DependsOn records happens-before edges to the given span IDs; nil-safe,
// zero IDs are skipped. The target spans need not have started (or ended)
// yet — edges are resolved when the DAG is reconstructed.
func (s *Span) DependsOn(ids ...int64) {
	if s == nil {
		return
	}
	for _, id := range ids {
		if id != 0 {
			s.deps = append(s.deps, id)
		}
	}
}

// End records the span; nil-safe, so `defer obs.StartSpan(x).End()` is
// always legal.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	rec := SpanRecord{
		Name:      s.name,
		ID:        s.id,
		Parent:    s.parent,
		TID:       s.tid,
		Gid:       s.gid,
		StartNs:   s.start.Sub(s.r.epoch).Nanoseconds(),
		DurNs:     end.Sub(s.start).Nanoseconds(),
		Submitter: s.submitter,
		Deps:      s.deps,
	}
	r := s.r
	r.popActive(s.gid, s.id)
	r.spanMu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, rec)
	} else {
		r.dropped++
	}
	r.spanMu.Unlock()
}

// SpanRecords returns a copy of the completed spans and the number dropped
// by the store cap.
func (r *Registry) SpanRecords() ([]SpanRecord, int64) {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	out := make([]SpanRecord, len(r.spans))
	copy(out, r.spans)
	return out, r.dropped
}

// pushActive records s as the goroutine's innermost open span.
func (r *Registry) pushActive(gid, id int64) {
	if gid == 0 {
		return
	}
	r.activeMu.Lock()
	r.active[gid] = append(r.active[gid], id)
	r.activeMu.Unlock()
}

// popActive removes the span from the goroutine's open-span stack. Spans
// normally end innermost-first, but out-of-order Ends (a child kept alive
// past its parent) only remove their own entry.
func (r *Registry) popActive(gid, id int64) {
	if gid == 0 {
		return
	}
	r.activeMu.Lock()
	stack := r.active[gid]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == id {
			stack = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	if len(stack) == 0 {
		delete(r.active, gid)
	} else {
		r.active[gid] = stack
	}
	r.activeMu.Unlock()
}

// CurrentSpanID returns the ID of the innermost open span on the calling
// goroutine, or 0 if none is open (or instrumentation is disabled). Worker
// pools use it to stamp the Submitter attribution edge on task spans
// without threading a span handle through submission APIs.
func CurrentSpanID() int64 {
	if !enabled.Load() {
		return 0
	}
	return defaultRegistry.CurrentSpanID()
}

// CurrentSpanID returns the calling goroutine's innermost open span on r.
func (r *Registry) CurrentSpanID() int64 {
	gid := curGoroutineID()
	if gid == 0 {
		return 0
	}
	r.activeMu.Lock()
	defer r.activeMu.Unlock()
	if stack := r.active[gid]; len(stack) > 0 {
		return stack[len(stack)-1]
	}
	return 0
}
