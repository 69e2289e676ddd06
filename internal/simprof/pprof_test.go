package simprof

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"strings"
	"testing"
)

func sampleEntries() []Entry {
	return []Entry{
		{
			Key:    Key{Kernel: "radix", Core: 0, Interval: 0, Phase: PhaseIssue, Op: "ADD", Stage: "SimpleALU"},
			Values: Values{Cycles: 120, Energy: 14.4, Instrs: 120},
		},
		{
			Key:    Key{Kernel: "radix", Core: 1, Interval: 2, Phase: PhaseReplay, Op: "MUL", Stage: "ComplexALU"},
			Values: Values{Cycles: 36.5, Errors: 6, Energy: 36.5, Instrs: 12},
		},
		{
			Key:    Key{Kernel: "radix", Core: 1, Interval: 2, Phase: PhaseReplay, Op: OpStall, Stage: "ComplexALU"},
			Values: Values{Cycles: 1000.25, Energy: 500.125},
		},
	}
}

// The encoder and the in-repo parser must round-trip: stacks, values,
// labels, sample types, comment and default sample type all survive.
func TestPprofRoundTrip(t *testing.T) {
	entries := sampleEntries()
	raw := EncodeProfile(entries)
	p, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}

	wantTypes := []ParsedValueType{
		{"sim_cycles", "cycles"},
		{"replay_errors", "errors"},
		{"energy_pj", "picojoules"},
	}
	if len(p.SampleTypes) != len(wantTypes) {
		t.Fatalf("got %d sample types, want %d", len(p.SampleTypes), len(wantTypes))
	}
	for i, want := range wantTypes {
		if p.SampleTypes[i] != want {
			t.Errorf("sample type %d = %+v, want %+v", i, p.SampleTypes[i], want)
		}
	}
	if p.DefaultSampleType != "sim_cycles" {
		t.Errorf("default sample type = %q", p.DefaultSampleType)
	}
	if len(p.Comments) != 1 || !strings.Contains(p.Comments[0], "simprof") {
		t.Errorf("comments = %q", p.Comments)
	}

	if len(p.Samples) != len(entries) {
		t.Fatalf("got %d samples, want %d", len(p.Samples), len(entries))
	}
	s := p.Samples[1]
	wantStack := []string{"ComplexALU", "MUL", "replay", "c1.iv2", "radix"}
	if len(s.Stack) != len(wantStack) {
		t.Fatalf("stack = %v", s.Stack)
	}
	for i, f := range wantStack {
		if s.Stack[i] != f {
			t.Errorf("stack[%d] = %q, want %q", i, s.Stack[i], f)
		}
	}
	wantValues := []int64{37, 6, 37} // 36.5 rounds to 37 (round half away from zero)
	for i, v := range wantValues {
		if s.Values[i] != v {
			t.Errorf("values[%d] = %d, want %d", i, s.Values[i], v)
		}
	}
	if s.NumLabels["core"] != 1 || s.NumLabels["interval"] != 2 {
		t.Errorf("labels = %v, want core=1 interval=2", s.NumLabels)
	}
	if v := p.Samples[2].Values[0]; v != 1000 {
		t.Errorf("stall cycles = %d, want 1000", v)
	}
}

// Gzipped output (the on-disk form) must parse via the magic-byte sniff.
func TestWriteProfileGzipped(t *testing.T) {
	var buf bytes.Buffer
	if err := writeProfileEntries(&buf, sampleEntries()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("output does not start with the gzip magic: % x", b[:2])
	}
	p, err := Parse(b)
	if err != nil {
		t.Fatalf("Parse(gzipped): %v", err)
	}
	if len(p.Samples) != 3 {
		t.Fatalf("got %d samples", len(p.Samples))
	}
}

// Repeated frame and label strings must intern to a single string-table
// entry — pprof requires it, and it is what keeps artifacts small.
func TestStringTableDedup(t *testing.T) {
	raw := EncodeProfile(sampleEntries())
	var tab []string
	if err := walkFields(raw, func(f field) error {
		if f.num == fProfileStringTable {
			tab = append(tab, string(f.chunk))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tab) == 0 || tab[0] != "" {
		t.Fatalf("string table must start with \"\": %q", tab)
	}
	seen := map[string]int{}
	for _, s := range tab {
		seen[s]++
	}
	for s, n := range seen {
		if n > 1 {
			t.Errorf("string %q appears %d times in the table", s, n)
		}
	}
	// "radix" is a frame in all three samples and "ComplexALU" in two.
	for _, want := range []string{"radix", "ComplexALU", "core", "interval"} {
		if seen[want] != 1 {
			t.Errorf("string %q interned %d times, want exactly 1", want, seen[want])
		}
	}
}

// Length prefixes past one varint byte: a >127-byte kernel name forces a
// two-byte length on its string-table entry, function name and every
// enclosing message. The parser must still round-trip it.
func TestLongVarintLengths(t *testing.T) {
	long := strings.Repeat("k", 200)
	entries := []Entry{{
		Key:    Key{Kernel: long, Core: 12345, Interval: 678, Phase: PhaseSampling, Op: "LD", Stage: "Decode"},
		Values: Values{Cycles: 1 << 40, Errors: 9, Energy: 3, Instrs: 4},
	}}
	raw := EncodeProfile(entries)
	p, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Samples) != 1 {
		t.Fatalf("got %d samples", len(p.Samples))
	}
	s := p.Samples[0]
	if s.Stack[4] != long {
		t.Errorf("long kernel frame did not survive: len %d", len(s.Stack[4]))
	}
	if s.Values[0] != 1<<40 {
		t.Errorf("wide varint value = %d, want %d", s.Values[0], int64(1)<<40)
	}
	if s.NumLabels["core"] != 12345 || s.NumLabels["interval"] != 678 {
		t.Errorf("labels = %v", s.NumLabels)
	}
}

// Golden wire bytes for a minimal profile: locks the encoder's exact
// output (field order, packing, interning) so accidental format drift is
// caught even though the parser is tolerant.
func TestEncodeGoldenBytes(t *testing.T) {
	entries := []Entry{{
		Key:    Key{Kernel: "k", Core: 1, Interval: 0, Phase: PhaseIssue, Op: "ADD", Stage: "Decode"},
		Values: Values{Cycles: 2, Errors: 1, Energy: 3, Instrs: 2},
	}}
	raw := EncodeProfile(entries)
	again := EncodeProfile(entries)
	if !bytes.Equal(raw, again) {
		t.Fatal("EncodeProfile is not deterministic for identical input")
	}
	// Spot-check the prefix: field 1 (sample_type), length 4,
	// type=sim_cycles unit=cycles by table index.
	want := []byte{
		0x0a, 0x04, // Profile.sample_type, len 4
		0x08, 0x01, // ValueType.type = string #1 ("sim_cycles")
		0x10, 0x02, // ValueType.unit = string #2 ("cycles")
	}
	if !bytes.HasPrefix(raw, want) {
		t.Errorf("encoding prefix = % x, want % x", raw[:len(want)], want)
	}
	p, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) != 1 || p.Samples[0].Values[0] != 2 {
		t.Fatalf("golden profile decode mismatch: %+v", p.Samples)
	}
}

// An unpacked encoding of repeated location ids/values (legal proto3,
// emitted by other writers) must decode identically to the packed form.
func TestParseUnpackedRepeatedFields(t *testing.T) {
	var out protoBuf
	// sample_type {type: 1, unit: 2}
	var vt protoBuf
	vt.varintField(fValueTypeType, 1)
	vt.varintField(fValueTypeUnit, 2)
	out.bytesField(fProfileSampleType, vt.b)
	// sample with unpacked location_id and value fields
	var s protoBuf
	s.varintField(fSampleLocationID, 1)
	s.varintField(fSampleValue, 7)
	s.varintField(fSampleValue, 8)
	out.bytesField(fProfileSample, s.b)
	// location 1 -> function 1 -> string 3
	var line protoBuf
	line.varintField(fLineFunctionID, 1)
	var loc protoBuf
	loc.varintField(fLocationID, 1)
	loc.bytesField(fLocationLine, line.b)
	out.bytesField(fProfileLocation, loc.b)
	var fn protoBuf
	fn.varintField(fFunctionID, 1)
	fn.varintField(fFunctionName, 3)
	out.bytesField(fProfileFunction, fn.b)
	for _, str := range []string{"", "cycles", "unit", "frame"} {
		out.bytesField(fProfileStringTable, []byte(str))
	}

	p, err := Parse(out.b)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Samples) != 1 {
		t.Fatalf("got %d samples", len(p.Samples))
	}
	if got := p.Samples[0]; len(got.Stack) != 1 || got.Stack[0] != "frame" ||
		len(got.Values) != 2 || got.Values[0] != 7 || got.Values[1] != 8 {
		t.Errorf("unpacked decode = %+v", p.Samples[0])
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	raw := EncodeProfile(sampleEntries())
	if _, err := Parse(raw[:len(raw)-3]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

// gzipBytes returns data gzipped.
func gzipBytes(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A gzip stream that inflates past the cap is an error whatever it holds:
// 8 KB of gzip that inflates to the cap plus one byte is refused before it
// is parsed, while one that inflates to exactly the cap is read in full
// (and then refused only as a profile).
func TestParseCapsInflatedSize(t *testing.T) {
	_, err := Parse(gzipBytes(t, make([]byte, maxInflatedBytes+1)))
	if err == nil || !strings.Contains(err.Error(), "inflates past") {
		t.Fatalf("a stream inflating to the cap + 1: err %v, want the inflated-size error", err)
	}
	_, err = Parse(gzipBytes(t, make([]byte, maxInflatedBytes)))
	if err == nil || strings.Contains(err.Error(), "inflates past") {
		t.Fatalf("a stream inflating to the cap: err %v, want a profile error", err)
	}
}

// FuzzParse: any input, raw proto or gzip, gives a profile or an error,
// never a panic. The seeds are a size-1 batch run's -simprof-out artifact
// (testdata/size1.pb.gz), as written and gunzipped: most mutations of the
// gzip bytes only fail decompression, so the raw form reaches the decoder.
func FuzzParse(f *testing.F) {
	gz, err := os.ReadFile("testdata/size1.pb.gz")
	if err != nil {
		f.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		f.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{gz, raw} {
		if _, err := Parse(seed); err != nil {
			f.Fatalf("the seed artifact does not parse: %v", err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := Parse(data); err == nil && p == nil {
			t.Fatal("Parse returned neither a profile nor an error")
		}
	})
}
