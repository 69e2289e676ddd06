package main

import (
	"bytes"
	"strings"
	"testing"
)

// A thread count below 1 is a usage error: one line on stderr, exit 2,
// nothing on stdout, and no kernel run.
func TestRejectsThreadsBelowOne(t *testing.T) {
	for _, threads := range []string{"0", "-1"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-threads", threads, "-summary"}, &stdout, &stderr); code != 2 {
			t.Errorf("-threads %s: exit %d, want 2", threads, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-threads %s: stdout %q, want nothing", threads, stdout.String())
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-threads "+threads) {
			t.Errorf("-threads %s: stderr %q, want one line naming the flag", threads, msg)
		}
	}
}

// A size below 1 is a usage error: one line on stderr, exit 2, nothing on
// stdout, and no kernel run (at size 0 raytrace panicked).
func TestRejectsNegativeSize(t *testing.T) {
	for _, size := range []string{"-1", "0"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-bench", "raytrace", "-size", size, "-summary"}, &stdout, &stderr); code != 2 {
			t.Errorf("-size %s: exit %d, want 2", size, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-size %s: stdout %q, want nothing", size, stdout.String())
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-size "+size) {
			t.Errorf("-size %s: stderr %q, want one line naming the flag", size, msg)
		}
	}
}

func TestSummary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "radix", "-threads", "2", "-size", "1", "-summary"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "radix: 2 threads,") ||
		!strings.HasPrefix(lines[1], "thread 0:") || !strings.HasPrefix(lines[2], "thread 1:") {
		t.Errorf("summary:\n%s", stdout.String())
	}
}

func TestUnknownBenchmarkFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "nosuch", "-summary"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.HasPrefix(stderr.String(), "tracegen: ") {
		t.Errorf("stderr %q", stderr.String())
	}
}
