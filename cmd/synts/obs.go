package main

// Observability wiring for cmd/synts: the -stats / -stats-json / -trace-out
// flags turn the obs layer on for the run (-stats and -stats-json export
// it afterwards, -trace-out records the run in a Go execution trace),
// -events-out records the decision ledger for batch runs and daemons
// alike, and -cpuprofile / -memprofile expose the stdlib pprof profilers.
// Everything here writes to stderr or to named files — stdout carries only
// the experiment artefacts, so instrumented runs stay byte-identical to
// plain ones (asserted by TestRunAllOutputIdenticalWithStats).

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"synts/internal/obs"
	"synts/internal/telemetry"
)

// obsRequested reports whether any instrumentation sink was asked for.
func obsRequested(stats bool, statsJSON, traceOut string) bool {
	return stats || statsJSON != "" || traceOut != ""
}

// obsSnapshot digests the default registry and attaches the self-describing
// meta block plus the derived ratios the snapshot schema promises (see
// cmd/obscheck).
func obsSnapshot() *obs.Snapshot {
	s := obs.Default().Snapshot()
	s.SetRunMeta(*engine, *seed, *size)
	s.AddDerived("exp.benchcache.hit_ratio",
		s.Ratio("exp.benchcache.hit", "exp.benchcache.hit", "exp.benchcache.miss", "exp.benchcache.wait"))
	s.AddDerived("exp.profiles.hit_ratio",
		s.Ratio("exp.profiles.hit", "exp.profiles.hit", "exp.profiles.miss", "exp.profiles.wait"))
	s.AddDerived("cpu.cache.hit_ratio", s.Ratio("cpu.cache.hits", "cpu.cache.accesses"))
	return s
}

// writeObsArtifacts emits the end-of-run stats table (-stats) and JSON
// snapshot (-stats-json).
func writeObsArtifacts(stats bool, statsJSON string, stderr io.Writer) error {
	if !stats && statsJSON == "" {
		return nil
	}
	snap := obsSnapshot()
	if stats {
		snap.WriteTable(stderr)
	}
	if statsJSON != "" {
		f, err := os.Create(statsJSON)
		if err != nil {
			return err
		}
		if err := snap.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// startEventsLedger begins one process's -events-out lifecycle: it
// creates path, so a path that cannot be written fails before the run,
// and turns the decision ledger on. The returned finish writes the
// canonical ledger into it and reports on stderr, under the who prefix,
// any events the cap dropped. With path empty the ledger stays off —
// nothing would ever read it — and finish does nothing.
func startEventsLedger(path, who string, stderr io.Writer) (finish func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-events-out: %w", err)
	}
	telemetry.Enable()
	return func() error {
		if err := telemetry.WriteLedger(f, who, stderr); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// startRecorder creates path and starts a whole-run recorder writing to
// it: pprof's CPU profiler for -cpuprofile, the Go execution tracer (whose
// regions are the obs.Region stages) for -trace-out. The returned stop
// ends the recorder and closes the file; call it once, after the run. An
// empty path records nothing.
func startRecorder(path string, start func(io.Writer) error, end func()) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := start(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		end()
		f.Close()
	}, nil
}

// writeHeapProfile dumps a heap profile at end of run.
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// The profile's "in use" means "as of the last GC"; collect now so it
	// means at exit.
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	return nil
}
