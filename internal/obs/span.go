package obs

import "time"

// Span is a scoped timer. StartSpan opens it, End closes and records it.
// Spans nest: Child opens a sub-span that inherits the parent's trace row
// (TID). Spans from worker pools carry an explicit TID (one Chrome-trace
// row per pool worker); spans opened without an explicit TID record the
// goroutine they started on, and the export attaches them to the
// explicit-TID span sharing that goroutine (their worker) — or to a row
// of their own when the goroutine never carried one — so deep callees
// never need to thread a span handle through their signatures.
type Span struct {
	r     *Registry
	name  string
	start time.Time
	tid   int   // -1 = unassigned (resolved at export)
	gid   int64 // goroutine the span started on
}

// SpanRecord is one completed span as stored in the registry.
type SpanRecord struct {
	Name    string
	TID     int   // -1 = unassigned
	Gid     int64 // goroutine id at StartSpan (0 = unknown)
	StartNs int64 // relative to the registry epoch
	DurNs   int64
}

// StartSpan opens a span on the default registry; returns nil (safe to use)
// while instrumentation is disabled.
func StartSpan(name string) *Span {
	if !enabled.Load() {
		return nil
	}
	return defaultRegistry.StartSpan(name)
}

// StartSpan opens a span on r.
func (r *Registry) StartSpan(name string) *Span {
	return &Span{r: r, name: name, start: time.Now(), tid: -1, gid: curGoroutineID()}
}

// Child opens a nested span inheriting the parent's TID; nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.r.StartSpan(name)
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

// End records the span; nil-safe, so `defer obs.StartSpan(x).End()` is
// always legal.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	rec := SpanRecord{
		Name:    s.name,
		TID:     s.tid,
		Gid:     s.gid,
		StartNs: s.start.Sub(s.r.epoch).Nanoseconds(),
		DurNs:   end.Sub(s.start).Nanoseconds(),
	}
	r := s.r
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
