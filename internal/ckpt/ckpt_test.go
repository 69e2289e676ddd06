package ckpt

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synts/internal/faults"
)

func testKey() Key { return Key{Size: 1, Seed: 2016, Threads: 4, Intervals: 3} }

func TestSaveLoadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), testKey())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("fig6.11"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty store loads with error %v, want fs.ErrNotExist", err)
	}
	out := []byte("Fig 6.11: rendered bytes\nwith newlines\n")
	if err := s.Save("fig6.11", out); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("fig6.11")
	if err != nil {
		t.Fatalf("saved checkpoint must load: %v", err)
	}
	if string(got) != string(out) {
		t.Fatalf("round trip changed bytes: %q != %q", got, out)
	}
}

// A checkpoint from a different workload configuration must be ignored,
// not replayed: its bytes belong to another run's golden output.
func TestLoadRejectsMismatchedKey(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("table5.1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	other := testKey()
	other.Seed++
	s2, err := Open(dir, other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Load("table5.1"); err == nil {
		t.Error("checkpoint with a different key must not load")
	}
	if _, err := s.Load("table5.1"); err != nil {
		t.Errorf("original key must still load: %v", err)
	}
}

func TestLoadRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fig1.2.ckpt.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("fig1.2"); err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt checkpoint loads with error %v, want a present-but-unusable error", err)
	}
}

func TestSaveIsAtomicReplacement(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("overhead", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("overhead", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("overhead")
	if err != nil || string(got) != "v2" {
		t.Fatalf("load after overwrite = %q, %v", got, err)
	}
	// No .tmp residue after successful saves.
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Errorf("tmp files left behind: %v", left)
	}
}

func TestValidateDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table5.1", "fig6.18"} {
		if err := s.Save(name, []byte(name+" output")); err != nil {
			t.Fatal(err)
		}
	}
	// A leftover tmp file from an interrupted save is ignored.
	if err := os.WriteFile(filepath.Join(dir, "fig1.3.ckpt.json.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ValidateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d entries, want 2", len(entries))
	}
	if entries[0].Experiment != "fig6.18" || entries[1].Experiment != "table5.1" {
		t.Errorf("entries out of order: %s, %s", entries[0].Experiment, entries[1].Experiment)
	}

	// A wrong-schema file fails validation loudly.
	bad := `{"schema":"synts-ckpt/v0","experiment":"x","key":{},"output":""}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "x.ckpt.json"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateDir(dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong schema must fail validation, got %v", err)
	}
}

func TestValidateFileNameMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("fig1.4", []byte("y")); err != nil {
		t.Fatal(err)
	}
	renamed := filepath.Join(dir, "fig9.9.ckpt.json")
	if err := os.Rename(filepath.Join(dir, "fig1.4.ckpt.json"), renamed); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateFile(renamed); err == nil {
		t.Error("file name / experiment mismatch must fail validation")
	}
}

// An injected ckpt-write-fail fires between the .tmp write and the
// rename: Save errors, the stray .tmp stays behind, and both Load and
// ValidateDir treat the directory as having no checkpoint. Once the
// fault clears, the same experiment checkpoints normally.
func TestSaveInjectedWriteFaultLeavesTmp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Key{Size: 1, Seed: 1, Threads: 1, Intervals: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.Enable(faults.CkptWriteFail+"=1", 1); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()
	if err := s.Save("fig1.2", []byte("rendered\n")); err == nil {
		t.Fatal("injected write fault did not surface from Save")
	}
	if _, err := os.Stat(filepath.Join(dir, "fig1.2.ckpt.json.tmp")); err != nil {
		t.Errorf("stray .tmp missing after injected fault: %v", err)
	}
	if _, err := s.Load("fig1.2"); err == nil {
		t.Error("Load returned a checkpoint that was never renamed into place")
	}
	entries, err := ValidateDir(dir)
	if err != nil {
		t.Fatalf("ValidateDir tripped over the stray .tmp: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("ValidateDir found %d checkpoints, want 0", len(entries))
	}
	faults.Disable()
	if err := s.Save("fig1.2", []byte("rendered\n")); err != nil {
		t.Fatalf("Save after the fault cleared: %v", err)
	}
	if out, err := s.Load("fig1.2"); err != nil || string(out) != "rendered\n" {
		t.Fatalf("Load after recovery = %q, %v", out, err)
	}
}
