package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Span-ID derivation is a pure function of position: equal inputs agree,
// any coordinate change moves the ID, and zero never escapes (it is the
// "no trace" sentinel on the wire).
func TestTraceDerive(t *testing.T) {
	a := TraceDerive(7, 9, TSClientAttempt, 3)
	if b := TraceDerive(7, 9, TSClientAttempt, 3); b != a {
		t.Fatalf("same inputs derived %x then %x", a, b)
	}
	for name, other := range map[string]uint64{
		"trace":  TraceDerive(8, 9, TSClientAttempt, 3),
		"parent": TraceDerive(7, 10, TSClientAttempt, 3),
		"name":   TraceDerive(7, 9, TSRouteHop, 3),
		"idx":    TraceDerive(7, 9, TSClientAttempt, 4),
	} {
		if other == a {
			t.Errorf("changing %s kept the derived ID %x", name, a)
		}
	}
	if TraceDerive(0, 0, "", 0) == 0 {
		t.Error("derivation produced the zero sentinel")
	}
}

// The collector is inert until enabled, stamps proc and epoch-relative
// timing when on, and resets on re-enable.
func TestTraceCollector(t *testing.T) {
	TraceDisable()
	TraceRecord(TraceSpan{Trace: TraceHex(1), Span: TraceHex(2), Name: TSClientRequest, Kind: HopRoot},
		time.Now(), time.Now())
	if spans, _ := TraceSpans(); len(spans) != 0 {
		t.Fatalf("disabled collector recorded %d spans", len(spans))
	}

	TraceEnable("testproc")
	defer TraceDisable()
	start := time.Now()
	TraceRecord(TraceSpan{Trace: TraceHex(1), Span: TraceHex(2), Name: TSClientRequest, Kind: HopRoot},
		start, start.Add(5*time.Millisecond))
	spans, dropped := TraceSpans()
	if dropped != 0 || len(spans) != 1 {
		t.Fatalf("spans=%d dropped=%d, want 1/0", len(spans), dropped)
	}
	sp := spans[0]
	if sp.Proc != "testproc" {
		t.Errorf("proc %q, want testproc", sp.Proc)
	}
	if sp.StartNs < 0 || sp.DurNs != (5*time.Millisecond).Nanoseconds() {
		t.Errorf("timing start=%d dur=%d", sp.StartNs, sp.DurNs)
	}
	if err := sp.Validate(); err != nil {
		t.Errorf("recorded span invalid: %v", err)
	}

	TraceEnable("other")
	if spans, _ := TraceSpans(); len(spans) != 0 {
		t.Fatalf("re-enable kept %d stale spans", len(spans))
	}
}

// Artifact round-trip: write → read preserves the spans, the writer's
// output is canonical (re-serialising is a fixed point), and unknown
// schemas, unknown span fields and invalid spans are rejected.
func TestTraceJSONLRoundTrip(t *testing.T) {
	spans := []TraceSpan{
		{Trace: TraceHex(3), Span: TraceHex(5), Name: TSClientRequest, Kind: HopRoot, Proc: "p", StartNs: 0, DurNs: 10},
		{Trace: TraceHex(3), Span: TraceHex(4), Parent: TraceHex(5), Name: TSClientAttempt, Kind: HopFirst, Proc: "p", Lane: 1, Backend: "http://b", Detail: "ok", StartNs: 1, DurNs: 8},
	}
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) {
		t.Fatalf("%d spans back, want %d", len(got), len(spans))
	}
	var again bytes.Buffer
	if err := WriteTraceJSONL(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("re-serialising a canonical artifact changed the bytes")
	}

	if _, err := ReadTraceJSONL(strings.NewReader("{\"schema\":\"wrong/v9\"}\n")); err == nil {
		t.Error("wrong schema accepted")
	}
	bad := "{\"schema\":\"synts-trace/v1\"}\n{\"trace\":\"00\",\"span\":\"00\",\"name\":\"x\",\"kind\":\"y\",\"proc\":\"p\",\"start_ns\":0,\"dur_ns\":0,\"bogus\":1}\n"
	if _, err := ReadTraceJSONL(strings.NewReader(bad)); err == nil {
		t.Error("unknown span field accepted")
	}
	negLane := "{\"schema\":\"synts-trace/v1\"}\n{\"trace\":\"0000000000000001\",\"span\":\"0000000000000002\",\"name\":\"client.attempt\",\"kind\":\"first\",\"proc\":\"p\",\"lane\":-1,\"start_ns\":0,\"dur_ns\":0}\n"
	if _, err := ReadTraceJSONL(strings.NewReader(negLane)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("span with a negative lane: err = %v, want a line-2 rejection", err)
	}
}

// Validate enforces the closed vocabulary: IDs are 16 lowercase hex,
// names are known, and each name only admits its own kinds.
func TestTraceSpanValidate(t *testing.T) {
	ok := TraceSpan{Trace: TraceHex(1), Span: TraceHex(2), Name: TSRouteHop, Kind: HopSkip, Proc: "r"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid span rejected: %v", err)
	}
	cases := map[string]TraceSpan{
		"short trace":   {Trace: "abc", Span: TraceHex(2), Name: TSRouteHop, Kind: HopSkip, Proc: "r"},
		"upper hex":     {Trace: strings.ToUpper(TraceHex(0xabcdef)), Span: TraceHex(2), Name: TSRouteHop, Kind: HopSkip, Proc: "r"},
		"unknown name":  {Trace: TraceHex(1), Span: TraceHex(2), Name: "client.bogus", Kind: HopRoot, Proc: "r"},
		"wrong kind":    {Trace: TraceHex(1), Span: TraceHex(2), Name: TSServiceSolve, Kind: HopRoot, Proc: "r"},
		"empty proc":    {Trace: TraceHex(1), Span: TraceHex(2), Name: TSRouteHop, Kind: HopSkip},
		"negative time": {Trace: TraceHex(1), Span: TraceHex(2), Name: TSRouteHop, Kind: HopSkip, Proc: "r", DurNs: -1},
	}
	for name, sp := range cases {
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The structural projection ignores timing: two runs whose spans differ
// only in StartNs/DurNs canonicalise identically, and the sort is stable
// under input permutation.
func TestTraceCanonIgnoresTiming(t *testing.T) {
	runA := []TraceSpan{
		{Trace: TraceHex(9), Span: TraceHex(1), Name: TSClientRequest, Kind: HopRoot, Proc: "l", StartNs: 0, DurNs: 100},
		{Trace: TraceHex(9), Span: TraceHex(2), Parent: TraceHex(1), Name: TSClientAttempt, Kind: HopFirst, Proc: "l", StartNs: 5, DurNs: 90},
	}
	runB := []TraceSpan{
		{Trace: TraceHex(9), Span: TraceHex(2), Parent: TraceHex(1), Name: TSClientAttempt, Kind: HopFirst, Proc: "l", StartNs: 7, DurNs: 222},
		{Trace: TraceHex(9), Span: TraceHex(1), Name: TSClientRequest, Kind: HopRoot, Proc: "l", StartNs: 3, DurNs: 400},
	}
	if !bytes.Equal(TraceCanon(runA), TraceCanon(runB)) {
		t.Fatal("projections differ though structure is identical")
	}
	runB[0].Detail = "ok"
	if bytes.Equal(TraceCanon(runA), TraceCanon(runB)) {
		t.Fatal("projection missed a structural (detail) change")
	}
}
