package obs

import (
	"context"
	"runtime/trace"
	"strings"
	"time"
)

// Region times one named stage of a batch run. StartRegion opens it and
// End closes it: the duration lands in the default registry's histogram
// of the same name, and a Go execution trace (-trace-out, or a daemon's
// /debug/pprof/trace) shows the region under that name on the timeline
// of the goroutine that ran it. A region must end on the goroutine that
// started it; regions opened inside one another nest.
type Region struct {
	h     *Histogram
	start time.Time
	tr    *trace.Region
}

// StartRegion opens a region named by its parts joined together; it
// returns nil (safe to End) while instrumentation is disabled. The parts
// are joined only while instrumentation is on, so a composed name such as
// StartRegion("exp.solve:", name) costs no allocation while it is off.
func StartRegion(parts ...string) *Region {
	if !enabled.Load() {
		return nil
	}
	name := strings.Join(parts, "")
	return &Region{h: defaultRegistry.Histogram(name), start: time.Now(), tr: trace.StartRegion(context.Background(), name)}
}

// End records the region's duration and closes it in the execution trace;
// nil-safe, so `defer obs.StartRegion(x).End()` is always legal.
func (r *Region) End() {
	if r == nil {
		return
	}
	r.h.Observe(float64(time.Since(r.start)))
	r.tr.End()
}
