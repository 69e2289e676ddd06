package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synts/internal/obs"
)

// fleetTraceSpans is a minimal complete trace split across two processes:
// the loadgen root + attempt, and the daemon's request + solve.
func fleetTraceSpans() (client, daemon []obs.TraceSpan) {
	hx := obs.TraceHex
	client = []obs.TraceSpan{
		{Trace: hx(7), Span: hx(7), Name: obs.TSClientRequest, Kind: obs.HopRoot, Proc: "loadgen", Detail: "ok", StartNs: 0, DurNs: 1000},
		{Trace: hx(7), Span: hx(10), Parent: hx(7), Name: obs.TSClientAttempt, Kind: obs.HopFirst, Proc: "loadgen", Detail: "ok", StartNs: 10, DurNs: 980},
	}
	daemon = []obs.TraceSpan{
		{Trace: hx(7), Span: hx(20), Parent: hx(10), Name: obs.TSServiceRequest, Kind: obs.HopFirst, Proc: "serve-d1", Detail: "ok", StartNs: 50, DurNs: 900},
		{Trace: hx(7), Span: hx(21), Parent: hx(20), Name: obs.TSServiceSolve, Kind: obs.HopSolve, Proc: "serve-d1", StartNs: 70, DurNs: 800},
	}
	return client, daemon
}

func writeTraceArtifact(t *testing.T, path string, spans []obs.TraceSpan) {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteTraceJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// A -trace-dir whose per-process artifacts stitch into complete trees
// passes, both as a directory and as one merged file.
func TestCheckTraceFleetArtifacts(t *testing.T) {
	client, daemon := fleetTraceSpans()
	dir := t.TempDir()
	writeTraceArtifact(t, filepath.Join(dir, "loadgen.trace.jsonl"), client)
	writeTraceArtifact(t, filepath.Join(dir, "serve-d1.trace.jsonl"), daemon)
	if err := checkTrace(dir); err != nil {
		t.Fatalf("valid trace dir rejected: %v", err)
	}
	merged := filepath.Join(t.TempDir(), "merged.trace.jsonl")
	writeTraceArtifact(t, merged, append(append([]obs.TraceSpan{}, client...), daemon...))
	if err := checkTrace(merged); err != nil {
		t.Fatalf("valid merged artifact rejected: %v", err)
	}
}

func TestCheckTraceFleetRejects(t *testing.T) {
	client, daemon := fleetTraceSpans()

	t.Run("orphan spans", func(t *testing.T) {
		// Daemon artifact alone: its spans have no client.request root.
		dir := t.TempDir()
		writeTraceArtifact(t, filepath.Join(dir, "serve-d1.trace.jsonl"), daemon)
		err := checkTrace(dir)
		if err == nil {
			t.Fatal("rootless artifact set accepted")
		}
	})

	t.Run("incomplete stitch", func(t *testing.T) {
		// Both processes present but the daemon's parent span missing:
		// the daemon subtree must surface as orphans, not vanish.
		dir := t.TempDir()
		writeTraceArtifact(t, filepath.Join(dir, "loadgen.trace.jsonl"), client[:1])
		writeTraceArtifact(t, filepath.Join(dir, "serve-d1.trace.jsonl"), daemon)
		err := checkTrace(dir)
		if err == nil || !strings.Contains(err.Error(), "orphan") {
			t.Fatalf("err = %v, want an orphan-span failure", err)
		}
	})

	t.Run("non-canonical order", func(t *testing.T) {
		var buf bytes.Buffer
		if err := obs.WriteTraceJSONL(&buf, client); err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(buf.String(), "\n")
		// Swap the two span lines after the schema header.
		raw := lines[0] + lines[2] + lines[1]
		dir := t.TempDir()
		path := filepath.Join(dir, "loadgen.trace.jsonl")
		if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		err := checkTrace(dir)
		if err == nil || !strings.Contains(err.Error(), "canonical") {
			t.Fatalf("err = %v, want a canonical-order failure", err)
		}
	})

	t.Run("invalid span", func(t *testing.T) {
		bad := append([]obs.TraceSpan{}, client...)
		bad[1].Kind = obs.HopSolve // client.attempt cannot be a solve
		dir := t.TempDir()
		writeTraceArtifact(t, filepath.Join(dir, "loadgen.trace.jsonl"), bad)
		if err := checkTrace(dir); err == nil {
			t.Fatal("artifact with an out-of-vocabulary span accepted")
		}
	})

	t.Run("empty dir", func(t *testing.T) {
		if err := checkTrace(t.TempDir()); err == nil {
			t.Fatal("empty trace dir accepted")
		}
	})
}
