package main

import (
	"bytes"
	"strings"
	"testing"
)

// A size below 1 is a usage error: one line on stderr, exit 2, nothing on
// stdout, and no kernel run (at size 0 raytrace panicked drawing from an
// empty range, and at size -1 a kernel panicked in makeslice).
func TestRejectsSizeBelowOne(t *testing.T) {
	for _, size := range []string{"0", "-1"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-bench", "raytrace", "-size", size}, &stdout, &stderr); code != 2 {
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

func TestUnknownStageFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-stage", "nosuch"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.HasPrefix(stderr.String(), "stagesim: ") {
		t.Errorf("stderr %q", stderr.String())
	}
}

func TestDelayDistribution(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-stage", "Decode", "-bench", "radix", "-size", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"stage Decode: ", "benchmark radix thread 0: ", "sensitized delay: p50 ", "  r=1.000  err=0.00000\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
