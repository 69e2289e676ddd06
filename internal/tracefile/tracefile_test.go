package tracefile

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"slices"
	"strings"
	"testing"

	"synts/internal/isa"
	"synts/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 4, 1, 3)
	var buf bytes.Buffer
	if err := SaveStreams(&buf, "radix", streams); err != nil {
		t.Fatal(err)
	}
	name, loaded, err := LoadStreams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "radix" {
		t.Fatalf("name = %q", name)
	}
	if len(loaded) != len(streams) {
		t.Fatalf("threads = %d, want %d", len(loaded), len(streams))
	}
	for ti := range streams {
		if loaded[ti].Thread != streams[ti].Thread {
			t.Fatalf("thread id mismatch at %d", ti)
		}
		if len(loaded[ti].Intervals) != len(streams[ti].Intervals) {
			t.Fatalf("interval count mismatch at thread %d", ti)
		}
		for ii := range streams[ti].Intervals {
			a, b := streams[ti].Intervals[ii], loaded[ti].Intervals[ii]
			if len(a) != len(b) {
				t.Fatalf("interval %d length mismatch", ii)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("instruction %d differs: %+v vs %+v", j, a[j], b[j])
				}
			}
		}
	}
}

func TestSaveStreamsRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveStreams(&buf, "x", nil); err == nil {
		t.Fatal("empty save accepted")
	}
}

func TestLoadStreamsRejectsGarbage(t *testing.T) {
	if _, _, err := LoadStreams(strings.NewReader("not a trace")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadStreamsRejectsTruncated(t *testing.T) {
	k, _ := workload.ByName("ocean")
	streams := workload.RunKernel(k, 2, 1, 1)
	var buf bytes.Buffer
	if err := SaveStreams(&buf, "ocean", streams); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]
	if _, _, err := LoadStreams(bytes.NewReader(half)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

// encodeTrace writes tf the way SaveStreams does, without its checks, so
// tests can hand LoadStreams files SaveStreams would refuse to write.
func encodeTrace(t testing.TB, tf any) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(tf); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The version 1 layout, whose instructions stored the immediate, the
// address and the result in fields of their own. gob matches fields by
// name, so these encode exactly as version 1 files did.
type (
	instV1 struct {
		Op           isa.Op
		Rd, Rs, Rt   uint8
		Imm          uint16
		A, B, C      uint32
		Addr, Result uint32
	}
	streamV1 struct {
		Thread    int
		Intervals [][]instV1
	}
	traceV1 struct {
		Version int
		Name    string
		Threads int
		Streams []*streamV1
	}
)

// v1Trace is a one-instruction version 1 file.
func v1Trace(t testing.TB) []byte {
	ld := instV1{Op: isa.LD, Rd: 1, Rs: 2, Rt: 3, Imm: 0x34, A: 0x1234, Addr: 0x1234}
	return encodeTrace(t, traceV1{
		Version: 1, Name: "radix", Threads: 1,
		Streams: []*streamV1{{Intervals: [][]instV1{{ld}}}},
	})
}

// smallRadix is a radix run cut to the first 16 instructions of every
// interval: every thread and barrier interval of a real trace, small
// enough to fuzz.
func smallRadix(t testing.TB) []*workload.Stream {
	k, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 2, 1, 1)
	for _, s := range streams {
		for ii, iv := range s.Intervals {
			s.Intervals[ii] = iv[:min(len(iv), 16)]
		}
	}
	return streams
}

func TestLoadStreamsRejectsInvalid(t *testing.T) {
	file := func(streams ...*workload.Stream) []byte {
		return encodeTrace(t, traceFile{Version: traceVersion, Name: "x", Threads: len(streams), Streams: streams})
	}
	one := func(in isa.Inst) []byte {
		return file(&workload.Stream{Intervals: [][]isa.Inst{{in}}})
	}
	add := isa.Inst{Op: isa.ADD, Rd: 1, Rs: 2, Rt: 3, A: 4, B: 5}
	cases := map[string][]byte{
		"zero threads":        file(),
		"version 1":           v1Trace(t),
		"thread out of place": file(&workload.Stream{Thread: 1, Intervals: [][]isa.Inst{{add}}}),
		"uneven intervals": file(
			&workload.Stream{Thread: 0, Intervals: [][]isa.Inst{{add}, {add}}},
			&workload.Stream{Thread: 1, Intervals: [][]isa.Inst{{add}}},
		),
		"undefined op":        one(isa.Inst{Op: isa.Op(isa.NumOps)}),
		"register field":      one(isa.Inst{Op: isa.ADD, Rt: 32}),
		"C on an R-format op": one(isa.Inst{Op: isa.ADD, C: 1}),
		"wide immediate":      one(isa.Inst{Op: isa.ADDI, C: 0x10000}),
	}
	for name, data := range cases {
		if _, _, err := LoadStreams(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
	// MAC's C is its accumulator, and a 16-bit immediate is in range.
	ok := file(&workload.Stream{Intervals: [][]isa.Inst{{
		{Op: isa.MAC, A: 2, B: 3, C: 0xFFFFFFFF},
		{Op: isa.ADDI, Rd: 31, C: 0xFFFF},
	}}})
	if _, _, err := LoadStreams(bytes.NewReader(ok)); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

// sameStreams compares streams by content: gob does not tell an empty
// interval from a nil one.
func sameStreams(a, b []*workload.Stream) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if a[t].Thread != b[t].Thread || len(a[t].Intervals) != len(b[t].Intervals) {
			return false
		}
		for ii, iv := range a[t].Intervals {
			if !slices.Equal(iv, b[t].Intervals[ii]) {
				return false
			}
		}
	}
	return true
}

// Any input either fails to load or loads as streams that pass the
// validation and come back unchanged through SaveStreams and LoadStreams.
func FuzzLoadStreams(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveStreams(&buf, "radix", smallRadix(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2]) // truncated gzip
	f.Add(encodeTrace(f, traceFile{Version: traceVersion, Name: "zero"}))
	f.Add(v1Trace(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		name, streams, err := LoadStreams(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := validateStreams(streams); err != nil {
			t.Fatalf("loaded streams fail validation: %v", err)
		}
		var out bytes.Buffer
		if err := SaveStreams(&out, name, streams); err != nil {
			t.Fatalf("saving loaded streams: %v", err)
		}
		name2, again, err := LoadStreams(&out)
		if err != nil {
			t.Fatalf("reloading saved streams: %v", err)
		}
		if name2 != name || !sameStreams(streams, again) {
			t.Fatal("streams changed through SaveStreams and LoadStreams")
		}
	})
}
