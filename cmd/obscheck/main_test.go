package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synts/internal/ckpt"
	"synts/internal/obs"
	"synts/internal/simprof"
	"synts/internal/telemetry"
)

func writeLedger(t *testing.T, events []telemetry.Event) string {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func goodEvents() []telemetry.Event {
	return []telemetry.Event{
		{Kind: telemetry.KindDecision, Bench: "b", Stage: "s", Solver: "SynTS",
			Core: 0, TSR: 0.3, EstErr: 0.1, ActErr: 0.1, Energy: 1, Time: 2},
		{Kind: telemetry.KindBarrier, Bench: "b", Stage: "s", Solver: "SynTS",
			Core: -1, Cores: 2, Energy: 2, Time: 2},
		{Kind: telemetry.KindEstimate, Bench: "b", Stage: "s",
			Core: 0, TSR: 0.3, EstErr: 0.12, ActErr: 0.1,
			SampleBudget: 10, SampleCycles: 15, IntervalCycles: 100},
	}
}

func TestCheckEventsAcceptsCanonicalLedger(t *testing.T) {
	path := writeLedger(t, goodEvents())
	if err := checkEvents(path, false, "decision,barrier,estimate"); err != nil {
		t.Fatalf("checkEvents rejected a canonical ledger: %v", err)
	}
}

func TestCheckEventsRejects(t *testing.T) {
	t.Run("invalid event", func(t *testing.T) {
		evs := goodEvents()
		evs[0].EstErr = 2 // outside [0,1]
		path := writeLedger(t, evs)
		if err := checkEvents(path, false, "decision,barrier,estimate"); err == nil {
			t.Fatal("accepted a ledger with est_err > 1")
		}
	})
	t.Run("missing kind", func(t *testing.T) {
		path := writeLedger(t, goodEvents()[:2]) // no estimate event
		if err := checkEvents(path, false, "decision,barrier,estimate"); err == nil {
			t.Fatal("accepted a ledger with no estimate events")
		}
	})
	t.Run("non-canonical order", func(t *testing.T) {
		path := writeLedger(t, goodEvents())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		if len(lines) != 4 {
			t.Fatalf("ledger has %d lines, want header + 3 events", len(lines))
		}
		// Swap two event lines; the multiset is unchanged, the order is not.
		lines[1], lines[2] = lines[2], lines[1]
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkEvents(path, false, "decision,barrier,estimate"); err == nil {
			t.Fatal("accepted a ledger in non-canonical order")
		}
	})
	t.Run("wrong schema", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "events.jsonl")
		if err := os.WriteFile(path, []byte(`{"schema":"synts-events/v0"}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkEvents(path, false, "decision,barrier,estimate"); err == nil {
			t.Fatal("accepted a ledger with the wrong schema version")
		}
	})
	t.Run("empty ledger", func(t *testing.T) {
		path := writeLedger(t, nil)
		if err := checkEvents(path, false, "decision,barrier,estimate"); err == nil {
			t.Fatal("accepted an event-free ledger")
		}
	})
}

// A router ledger carries breaker and failover events instead of the
// batch pipeline's kinds; -events-require swaps the presence check while
// everything else (validity, canonical order) is still enforced.
func TestCheckEventsRequireRouterKinds(t *testing.T) {
	routerEvents := []telemetry.Event{
		{Kind: telemetry.KindBreaker, Bench: "127.0.0.1:9301", Solver: "fleet-route",
			Core: -1, Reason: "open:consecutive-failures"},
		{Kind: telemetry.KindFailover, Bench: "127.0.0.1:9301", Solver: "fleet-route",
			Core: -1, Reason: "backend-error"},
	}
	path := writeLedger(t, routerEvents)
	if err := checkEvents(path, false, "breaker,failover"); err != nil {
		t.Fatalf("checkEvents rejected a router ledger: %v", err)
	}
	// The same ledger fails the batch-kind default: it has no decisions.
	if err := checkEvents(path, false, "decision,barrier,estimate"); err == nil {
		t.Fatal("router ledger passed the batch-kind presence check")
	}
	// And a batch ledger fails the router requirement.
	if err := checkEvents(writeLedger(t, goodEvents()), false, "breaker,failover"); err == nil {
		t.Fatal("batch ledger passed the router-kind presence check")
	}
}

// -allow-empty downgrades the zero-events error (schema is still checked).
func TestCheckEventsAllowEmpty(t *testing.T) {
	path := writeLedger(t, nil)
	if err := checkEvents(path, true, "decision,barrier,estimate"); err != nil {
		t.Fatalf("-allow-empty still rejected a header-only ledger: %v", err)
	}
	bad := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(bad, []byte(`{"schema":"synts-events/v0"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkEvents(bad, true, "decision,barrier,estimate"); err == nil {
		t.Fatal("-allow-empty accepted a wrong schema version")
	}
}

// writeSimprof snapshots the current simprof state into a profile file.
func writeSimprof(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := simprof.WriteProfile(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "simprof.pb.gz")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func recordSimprofFixture(t *testing.T) {
	t.Helper()
	simprof.Enable()
	t.Cleanup(simprof.Disable)
	simprof.Record(
		simprof.Key{Kernel: "b", Core: 0, Interval: 0, Phase: simprof.PhaseReplay, Op: "ADD", Stage: "SimpleALU"},
		simprof.Values{Cycles: 10, Errors: 2, Energy: 10, Instrs: 8})
	simprof.Record(
		simprof.Key{Kernel: "b", Core: 0, Interval: 0, Phase: simprof.PhaseReplay, Op: simprof.OpStall, Stage: "SimpleALU"},
		simprof.Values{Cycles: 5, Energy: 2.5})
	simprof.Record(
		simprof.Key{Kernel: "b", Core: 1, Interval: 0, Phase: simprof.PhaseSampling, Op: "LD", Stage: "SimpleALU"},
		simprof.Values{Cycles: 4, Errors: 1, Energy: 4, Instrs: 3})
}

func TestCheckSimprofValidProfile(t *testing.T) {
	recordSimprofFixture(t)
	path := writeSimprof(t)
	if err := checkSimprof(path, "", false); err != nil {
		t.Fatalf("rejected a valid profile: %v", err)
	}
	// Cross-check against a ledger whose replay/estimate totals match the
	// recorded attribution exactly.
	ledger := writeLedger(t, []telemetry.Event{
		{Kind: telemetry.KindReplay, Bench: "b", Stage: "SimpleALU",
			Core: 0, Replays: 2, Instrs: 8, Cycles: 15},
		{Kind: telemetry.KindEstimate, Bench: "b", Stage: "SimpleALU",
			Core: 1, Replays: 1, SampleBudget: 3, SampleCycles: 4},
	})
	if err := checkSimprof(path, ledger, false); err != nil {
		t.Fatalf("cross-check rejected matching totals: %v", err)
	}
}

func TestCheckSimprofCrossCheckMismatch(t *testing.T) {
	recordSimprofFixture(t)
	path := writeSimprof(t)
	ledger := writeLedger(t, []telemetry.Event{
		{Kind: telemetry.KindReplay, Bench: "b", Stage: "SimpleALU",
			Core: 0, Replays: 3, Instrs: 8, Cycles: 15}, // one replay too many
		{Kind: telemetry.KindEstimate, Bench: "b", Stage: "SimpleALU",
			Core: 1, Replays: 1, SampleBudget: 3, SampleCycles: 4},
	})
	err := checkSimprof(path, ledger, false)
	if err == nil || !strings.Contains(err.Error(), "errors") {
		t.Fatalf("accepted a replay-count mismatch (err = %v)", err)
	}
	// A ledger group with no profile counterpart must also fail.
	ledger2 := writeLedger(t, []telemetry.Event{
		{Kind: telemetry.KindReplay, Bench: "b", Stage: "Decode",
			Core: 0, Replays: 1, Cycles: 1},
	})
	if err := checkSimprof(path, ledger2, false); err == nil {
		t.Fatal("accepted a ledger replay group the profile never recorded")
	}
}

func TestCheckSimprofRejectsBadFrames(t *testing.T) {
	simprof.Enable()
	t.Cleanup(simprof.Disable)
	simprof.Record(
		simprof.Key{Kernel: "b", Core: 0, Interval: 0, Phase: "warp", Op: "ADD", Stage: "SimpleALU"},
		simprof.Values{Cycles: 1, Instrs: 1})
	path := writeSimprof(t)
	if err := checkSimprof(path, "", false); err == nil || !strings.Contains(err.Error(), "phase") {
		t.Fatalf("accepted an unknown phase frame (err = %v)", err)
	}
	simprof.Enable() // clears the first sample
	simprof.Record(
		simprof.Key{Kernel: "b", Core: 0, Interval: 0, Phase: simprof.PhaseReplay, Op: "FROB", Stage: "SimpleALU"},
		simprof.Values{Cycles: 1, Instrs: 1})
	path = writeSimprof(t)
	if err := checkSimprof(path, "", false); err == nil || !strings.Contains(err.Error(), "op") {
		t.Fatalf("accepted an unknown op frame (err = %v)", err)
	}
}

func TestCheckSimprofEmpty(t *testing.T) {
	simprof.Enable()
	t.Cleanup(simprof.Disable)
	path := writeSimprof(t)
	if err := checkSimprof(path, "", false); err == nil {
		t.Fatal("accepted a sample-free profile without -allow-empty")
	}
	if err := checkSimprof(path, "", true); err != nil {
		t.Fatalf("-allow-empty still rejected a sample-free profile: %v", err)
	}
}

func TestCheckSimprofNotAProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkSimprof(path, "", false); err == nil {
		t.Fatal("accepted a non-profile file")
	}
}

func TestCheckCkpt(t *testing.T) {
	dir := t.TempDir()
	if err := checkCkpt(dir); err == nil {
		t.Fatal("accepted an empty checkpoint directory")
	}
	s, err := ckpt.Open(dir, ckpt.Key{Size: 1, Seed: 2016, Threads: 4, Intervals: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("table5.1", []byte("rendered table\n")); err != nil {
		t.Fatal(err)
	}
	if err := checkCkpt(dir); err != nil {
		t.Fatalf("rejected a valid checkpoint dir: %v", err)
	}
	bad := `{"schema":"synts-ckpt/v0","experiment":"x","key":{},"output":"eA=="}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "x.ckpt.json"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkCkpt(dir); err == nil {
		t.Fatal("accepted a checkpoint with the wrong schema version")
	}
}

// statsFixture builds a snapshot that satisfies every checkStats rule.
func statsFixture(t *testing.T, mutate func(s *obs.Snapshot)) string {
	t.Helper()
	obs.Enable()
	defer obs.Disable()
	for i := 1; i <= 200; i++ {
		obs.H("pool.queue_wait_ns").Observe(float64(i) * 1000)
	}
	obs.H("trace.build_profiles:SimpleALU").Observe(1e6)
	s := obs.Default().Snapshot()
	s.SetRunMeta("event", 2016, 1)
	s.AddDerived("exp.benchcache.hit_ratio", 0.5)
	if mutate != nil {
		mutate(s)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stats.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckStatsMetaBlock(t *testing.T) {
	if err := checkStats(statsFixture(t, nil)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if err := checkStats(statsFixture(t, func(s *obs.Snapshot) { s.Meta = nil })); err == nil || !strings.Contains(err.Error(), "meta") {
		t.Errorf("missing meta: err = %v", err)
	}
	if err := checkStats(statsFixture(t, func(s *obs.Snapshot) { s.Meta.Engine = "warp" })); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Errorf("bad engine: err = %v", err)
	}
	if err := checkStats(statsFixture(t, func(s *obs.Snapshot) { s.Meta.GoVersion = "" })); err == nil {
		t.Error("empty go_version accepted")
	}
	if err := checkStats(statsFixture(t, func(s *obs.Snapshot) { s.Meta.GoMaxProcs++ })); err == nil || !strings.Contains(err.Error(), "gomaxprocs") {
		t.Errorf("gomaxprocs mismatch: err = %v", err)
	}
}
