// Package sched is the scheduler-observability layer: it reconstructs the
// execution DAG of a run from the span records the obs layer collected
// (parent/child nesting, pool-task Submitter attribution edges, and the
// explicit happens-before Deps edges trace.BuildProfilesScopedCtx emits per
// (thread, interval)), and turns the DAG into answers a scaling study
// needs — the critical path, the measured serial fraction, per-stage
// aggregate time, queue-wait vs worker-busy vs idle attribution, and
// per-worker straggler statistics. The `synts sweep` subcommand runs the
// -j × -engine matrix through this analyzer and fits Amdahl/USL models to
// the measured speedups (fit.go); the artifact schema and its validator
// live in sweep.go.
package sched

import (
	"sort"
	"strings"

	"synts/internal/obs"
)

// TaskSpanName is the span name internal/pool gives every worker task;
// the union of these spans' intervals is the run's parallel region.
const TaskSpanName = "pool.task"

// Options configures one analysis.
type Options struct {
	// WallNs is the externally measured wall clock of the analysed run;
	// 0 derives it from the span records (max end − min start).
	WallNs int64
	// Workers is the pool size j of the analysed run; 0 counts the
	// distinct worker rows (TIDs) the task spans used.
	Workers int
	// QueueWaitNs is the summed pool.queue_wait_ns histogram of the run
	// (diagnostic: queue wait overlaps other workers' busy time, so it is
	// reported alongside, not added into, the wall-clock attribution).
	QueueWaitNs int64
}

// StageTotal aggregates the spans of one pipeline stage.
type StageTotal struct {
	Stage   string `json:"stage"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
}

// WorkerStat is one worker row's share of the run.
type WorkerStat struct {
	TID    int   `json:"tid"`
	Tasks  int   `json:"tasks"`
	BusyNs int64 `json:"busy_ns"`
}

// PathStep is one node of the critical path.
type PathStep struct {
	Name  string `json:"name"`
	ID    int64  `json:"id"`
	DurNs int64  `json:"dur_ns"`
}

// Analysis is the reconstructed scheduling picture of one run.
//
// The attribution identity is
//
//	AttributedNs = SerialNs + ParallelNs
//
// where ParallelNs is the union coverage of the pool-task spans and
// SerialNs the span-timeline remainder outside it. AttributedNs is derived
// entirely from span records while WallNs is an independent measurement,
// so comparing them is a genuine reconciliation check (obscheck enforces
// agreement within 5%): dropped spans or unspanned work show up as a gap.
// Within the parallel region, capacity splits as
//
//	Workers × ParallelNs = WorkerBusyNs + WorkerIdleNs.
type Analysis struct {
	WallNs     int64 `json:"wall_ns"`      // measured (or span-derived) wall clock
	SpanWallNs int64 `json:"span_wall_ns"` // span timeline: max end − min start

	SerialNs     int64   `json:"serial_ns"`   // no task in flight
	ParallelNs   int64   `json:"parallel_ns"` // ≥1 task in flight (union coverage)
	AttributedNs int64   `json:"attributed_ns"`
	SerialFrac   float64 `json:"serial_fraction"` // SerialNs / AttributedNs

	Workers      int   `json:"workers"`
	WorkerBusyNs int64 `json:"worker_busy_ns"` // Σ task span durations
	WorkerIdleNs int64 `json:"worker_idle_ns"` // Workers×ParallelNs − WorkerBusyNs
	QueueWaitNs  int64 `json:"queue_wait_ns"`  // Σ queue-wait (overlaps busy; diagnostic)

	CriticalPathNs   int64      `json:"critical_path_ns"`
	CriticalPath     []PathStep `json:"critical_path,omitempty"`
	CriticalPathFrac float64    `json:"critical_path_fraction"` // CP / total dep-linked work

	Stages        []StageTotal `json:"stages"`
	WorkersDetail []WorkerStat `json:"workers_detail,omitempty"`

	// Submitters attributes the pool-task busy time to the stage of the
	// span that submitted each task (the Submitter edge), for example the
	// experiment driver ("exp.run") or the profile build that fanned the
	// task out. Tasks whose submitter span is unknown (or none) aggregate
	// under "(none)".
	Submitters []StageTotal `json:"submitters,omitempty"`

	StragglerTID     int     `json:"straggler_tid"`      // worker with the most busy time
	ImbalanceMaxMean float64 `json:"imbalance_max_mean"` // max worker busy / mean worker busy
}

// StageOf classifies a span name into its pipeline stage: the name up to
// the first ':' (span names are "<stage>:<qualifier>"), so
// "trace.interval_build:SimpleALU" and "trace.interval_build:Decode" both
// aggregate under "trace.interval_build".
func StageOf(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// Analyze reconstructs the execution DAG from a run's span records.
func Analyze(recs []obs.SpanRecord, opts Options) *Analysis {
	a := &Analysis{Workers: opts.Workers, QueueWaitNs: opts.QueueWaitNs}
	if len(recs) == 0 {
		a.WallNs = opts.WallNs
		return a
	}

	// Span timeline bounds.
	minStart, maxEnd := recs[0].StartNs, recs[0].StartNs+recs[0].DurNs
	for _, r := range recs {
		if r.StartNs < minStart {
			minStart = r.StartNs
		}
		if end := r.StartNs + r.DurNs; end > maxEnd {
			maxEnd = end
		}
	}
	a.SpanWallNs = maxEnd - minStart
	a.WallNs = opts.WallNs
	if a.WallNs <= 0 {
		a.WallNs = a.SpanWallNs
	}

	// Parallel region: union coverage of the task spans; busy and
	// per-worker stats fall out of the same pass.
	type iv struct{ s, e int64 }
	var tasks []iv
	workerBusy := map[int]*WorkerStat{}
	for _, r := range recs {
		if r.Name != TaskSpanName {
			continue
		}
		tasks = append(tasks, iv{r.StartNs, r.StartNs + r.DurNs})
		a.WorkerBusyNs += r.DurNs
		w := workerBusy[r.TID]
		if w == nil {
			w = &WorkerStat{TID: r.TID}
			workerBusy[r.TID] = w
		}
		w.Tasks++
		w.BusyNs += r.DurNs
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].s < tasks[j].s })
	var coverage, curS, curE int64
	for i, t := range tasks {
		if i == 0 || t.s > curE {
			coverage += curE - curS
			curS, curE = t.s, t.e
			continue
		}
		if t.e > curE {
			curE = t.e
		}
	}
	coverage += curE - curS
	a.ParallelNs = coverage
	a.SerialNs = a.SpanWallNs - coverage
	if a.SerialNs < 0 {
		a.SerialNs = 0
	}
	a.AttributedNs = a.SerialNs + a.ParallelNs
	if a.AttributedNs > 0 {
		a.SerialFrac = float64(a.SerialNs) / float64(a.AttributedNs)
	}
	if a.Workers <= 0 {
		a.Workers = len(workerBusy)
	}
	if a.Workers > 0 {
		a.WorkerIdleNs = int64(a.Workers)*a.ParallelNs - a.WorkerBusyNs
		if a.WorkerIdleNs < 0 {
			a.WorkerIdleNs = 0
		}
	}

	// Per-worker straggler/imbalance stats.
	for _, w := range workerBusy {
		a.WorkersDetail = append(a.WorkersDetail, *w)
	}
	sort.Slice(a.WorkersDetail, func(i, j int) bool { return a.WorkersDetail[i].TID < a.WorkersDetail[j].TID })
	if n := len(a.WorkersDetail); n > 0 {
		var sum, max int64
		for _, w := range a.WorkersDetail {
			sum += w.BusyNs
			if w.BusyNs > max {
				max = w.BusyNs
				a.StragglerTID = w.TID
			}
		}
		if sum > 0 {
			a.ImbalanceMaxMean = float64(max) / (float64(sum) / float64(n))
		}
	}

	// Submitter attribution: task busy time grouped by the stage of the
	// span that enqueued the task.
	nameByID := make(map[int64]string, len(recs))
	for _, r := range recs {
		nameByID[r.ID] = r.Name
	}
	subTot := map[string]*StageTotal{}
	for _, r := range recs {
		if r.Name != TaskSpanName {
			continue
		}
		st := "(none)"
		if n, ok := nameByID[r.Submitter]; ok && r.Submitter != 0 {
			st = StageOf(n)
		}
		g := subTot[st]
		if g == nil {
			g = &StageTotal{Stage: st}
			subTot[st] = g
		}
		g.Count++
		g.TotalNs += r.DurNs
	}
	for _, g := range subTot {
		a.Submitters = append(a.Submitters, *g)
	}
	sort.Slice(a.Submitters, func(i, j int) bool { return a.Submitters[i].Stage < a.Submitters[j].Stage })

	// Per-stage aggregate time.
	stageTot := map[string]*StageTotal{}
	for _, r := range recs {
		st := StageOf(r.Name)
		g := stageTot[st]
		if g == nil {
			g = &StageTotal{Stage: st}
			stageTot[st] = g
		}
		g.Count++
		g.TotalNs += r.DurNs
	}
	for _, g := range stageTot {
		a.Stages = append(a.Stages, *g)
	}
	sort.Slice(a.Stages, func(i, j int) bool { return a.Stages[i].Stage < a.Stages[j].Stage })

	a.CriticalPathNs, a.CriticalPath, a.CriticalPathFrac = criticalPath(recs)
	return a
}

// criticalPath computes the heaviest chain through the explicit
// happens-before edges (SpanRecord.Deps): the longest-by-duration path in
// the DAG, i.e. the time the traced work would need on infinitely many
// workers if the recorded dependences were respected. Returns the path
// (dependency-first), its total duration, and its fraction of the total
// duration of dep-linked spans (1.0 = fully serial chain). Spans outside
// the dependency graph form single-node chains; cycles (which a correct
// producer never emits) are broken by ignoring the closing edge.
func criticalPath(recs []obs.SpanRecord) (int64, []PathStep, float64) {
	byID := make(map[int64]int, len(recs))
	for i, r := range recs {
		byID[r.ID] = i
	}
	// linked marks spans participating in the dependency graph.
	linked := make([]bool, len(recs))
	for i, r := range recs {
		for _, d := range r.Deps {
			if j, ok := byID[d]; ok {
				linked[i] = true
				linked[j] = true
			}
		}
	}
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]int8, len(recs))
	best := make([]int64, len(recs))  // heaviest chain ending at i (inclusive)
	bestDep := make([]int, len(recs)) // predecessor index on that chain, -1 = none
	var visit func(i int) int64
	visit = func(i int) int64 {
		if state[i] == done {
			return best[i]
		}
		if state[i] == visiting {
			return 0 // cycle: ignore the closing edge
		}
		state[i] = visiting
		bestDep[i] = -1
		var heaviest int64
		for _, d := range recs[i].Deps {
			j, ok := byID[d]
			// Skipping nodes still on the DFS stack drops exactly the
			// cycle-closing edges, so bestDep links only into completed
			// subtrees and the path reconstruction below cannot loop.
			if !ok || j == i || state[j] == visiting {
				continue
			}
			if w := visit(j); w > heaviest || (w == heaviest && bestDep[i] < 0) {
				heaviest = w
				bestDep[i] = j
			}
		}
		best[i] = heaviest + recs[i].DurNs
		state[i] = done
		return best[i]
	}
	var cpEnd = -1
	var cpNs, totalLinked int64
	for i := range recs {
		if !linked[i] {
			continue
		}
		totalLinked += recs[i].DurNs
		if w := visit(i); w > cpNs {
			cpNs = w
			cpEnd = i
		}
	}
	if cpEnd < 0 {
		return 0, nil, 0
	}
	var rev []PathStep
	for i := cpEnd; i >= 0; i = bestDep[i] {
		rev = append(rev, PathStep{Name: recs[i].Name, ID: recs[i].ID, DurNs: recs[i].DurNs})
	}
	path := make([]PathStep, len(rev))
	for i, s := range rev {
		path[len(rev)-1-i] = s
	}
	frac := 0.0
	if totalLinked > 0 {
		frac = float64(cpNs) / float64(totalLinked)
	}
	return cpNs, path, frac
}
