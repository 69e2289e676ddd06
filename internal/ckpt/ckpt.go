// Package ckpt persists completed experiment results of a synts batch run
// so an interrupted invocation can resume without redoing finished work.
//
// The unit of checkpointing is one experiment's rendered stdout bytes: the
// batch runner already renders every experiment into a private buffer (for
// order-independent output), so the buffer is exactly the replayable
// artefact. Each checkpoint is one schema-versioned JSON file
// ("synts-ckpt/v1") keyed by the workload configuration (size, seed,
// threads, intervals); a checkpoint written under any other configuration
// is ignored rather than replayed, so stale directories can never leak
// wrong bytes into a run. Files are written atomically (tmp + rename) —
// a SIGKILL mid-write leaves either the old file or none, never a torn one.
package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"synts/internal/faults"
)

// SchemaVersion identifies the checkpoint file format.
const SchemaVersion = "synts-ckpt/v1"

// Key fingerprints the workload configuration a checkpoint is valid for.
// Two runs with equal keys produce byte-identical experiment output, which
// is what makes replaying a checkpointed buffer sound.
type Key struct {
	Size      int   `json:"size"`
	Seed      int64 `json:"seed"`
	Threads   int   `json:"threads"`
	Intervals int   `json:"intervals"`
}

// Entry is one checkpoint file: the rendered output of one completed
// experiment under one workload configuration.
type Entry struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	Key        Key    `json:"key"`
	Output     []byte `json:"output"`
}

// Store reads and writes checkpoints in one directory under one key.
type Store struct {
	dir string
	key Key
}

// Open prepares dir (creating it if needed) for checkpoints under key.
func Open(dir string, key Key) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, key: key}, nil
}

func (s *Store) path(experiment string) string {
	return filepath.Join(s.dir, experiment+".ckpt.json")
}

// Load returns the stored output for experiment. It errors when no usable
// checkpoint exists: the os.ReadFile error when the file is missing
// (errors.Is fs.ErrNotExist) or unreadable, and a descriptive error when
// a file is present but unusable (torn JSON, wrong schema, another
// experiment's bytes, another workload configuration's key). A resume
// then recomputes; it never fails over a bad checkpoint.
func (s *Store) Load(experiment string) ([]byte, error) {
	raw, err := os.ReadFile(s.path(experiment))
	if err != nil {
		return nil, err
	}
	var e Entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("ckpt: %s: torn or foreign blob: %w", experiment, err)
	}
	switch {
	case e.Schema != SchemaVersion:
		return nil, fmt.Errorf("ckpt: %s: schema %q, want %q", experiment, e.Schema, SchemaVersion)
	case e.Experiment != experiment:
		return nil, fmt.Errorf("ckpt: %s: entry names experiment %q", experiment, e.Experiment)
	case e.Key != s.key:
		return nil, fmt.Errorf("ckpt: %s: written under another workload key", experiment)
	}
	return e.Output, nil
}

// Save atomically records experiment's rendered output: the entry is
// written to a temporary file in the same directory and renamed into
// place, so a concurrent reader (or a kill at any instant) sees either
// the previous checkpoint or the complete new one.
func (s *Store) Save(experiment string, output []byte) error {
	e := Entry{Schema: SchemaVersion, Experiment: experiment, Key: s.key, Output: output}
	raw, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	tmp := s.path(experiment) + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	if faults.Enabled() && faults.CkptSaveFail(experiment) {
		// Chaos harness: the write "succeeded" but the device died before
		// the rename — exactly the window tmp-then-rename defends. The
		// stray .tmp is deliberately left behind: ValidateDir and Load
		// must ignore it.
		return fmt.Errorf("ckpt: %s: injected write fault before rename (checkpoint lost, .tmp left)", experiment)
	}
	return os.Rename(tmp, s.path(experiment))
}

// ValidateFile checks one checkpoint file against the synts-ckpt/v1
// contract and returns its entry.
func ValidateFile(path string) (*Entry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e Entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("%s: not a checkpoint: %w", path, err)
	}
	if e.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, e.Schema, SchemaVersion)
	}
	if e.Experiment == "" {
		return nil, fmt.Errorf("%s: empty experiment name", path)
	}
	if want := e.Experiment + ".ckpt.json"; filepath.Base(path) != want {
		return nil, fmt.Errorf("%s: file name does not match experiment %q", path, e.Experiment)
	}
	return &e, nil
}

// ValidateDir validates every checkpoint in dir and returns the entries
// sorted by experiment name. Leftover .tmp files are ignored (an
// interrupted Save may leave one; it is garbage, not corruption).
func ValidateDir(dir string) ([]*Entry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.ckpt.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	entries := make([]*Entry, 0, len(paths))
	for _, p := range paths {
		e, err := ValidateFile(p)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}
