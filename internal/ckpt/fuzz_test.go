package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadChecked files arbitrary bytes as one experiment's checkpoint
// entry and reads them back the way -resume does. Whatever the bytes,
// Load must not panic and must never report a present file as missing,
// and saving an accepted output must load back byte-equal.
func FuzzLoadChecked(f *testing.F) {
	const name = "table5.1"
	key := Key{Size: 1, Seed: 2016, Threads: 4, Intervals: 2}
	s, err := Open(f.TempDir(), key)
	if err != nil {
		f.Fatal(err)
	}
	saved := func(output []byte) []byte {
		if err := s.Save(name, output); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(s.path(name))
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	entry := func(mutate func(e *Entry)) []byte {
		e := Entry{Schema: SchemaVersion, Experiment: name, Key: key, Output: []byte("ok\n")}
		mutate(&e)
		raw, err := json.Marshal(&e)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	genuine := saved([]byte("Table 5.1\n1.00 V  1.00x\n"))
	f.Add(genuine)
	f.Add(saved(nil)) // "output":null
	f.Add(genuine[:len(genuine)/2])
	f.Add(entry(func(e *Entry) { e.Schema = "synts-ckpt/v0" }))
	f.Add(entry(func(e *Entry) { e.Experiment = "fig5.9" }))
	f.Add(entry(func(e *Entry) { e.Key.Seed++ }))

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Not t.TempDir: under -fuzz it stalls the worker's exec reports.
		dir, err := os.MkdirTemp("", "ckpt")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, name+".ckpt.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, key)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Load(name)
		if errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("present entry %q read as missing", raw)
		}
		if err != nil {
			return
		}
		if err := s.Save(name, out); err != nil {
			t.Fatal(err)
		}
		again, err := s.Load(name)
		if err != nil || !bytes.Equal(again, out) {
			t.Fatalf("saved output %q loads back as %q (err %v)", out, again, err)
		}
	})
}
