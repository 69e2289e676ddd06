package sched

import (
	"bytes"
	"testing"

	"synts/internal/obs"
)

// FuzzStitchArtifact feeds arbitrary bytes through the path `synts trace`
// takes: decode a synts-trace/v1 artifact, then stitch, report and print
// the canonical projection. Whatever the decoder accepts must stitch and
// report without panicking. The checked-in corpus
// (testdata/fuzz/FuzzStitchArtifact) replays in every normal `go test` run.
func FuzzStitchArtifact(f *testing.F) {
	seed := []obs.TraceSpan{
		{Trace: hx(1), Span: hx(1), Name: obs.TSClientRequest, Kind: obs.HopRoot, Proc: "lg", Detail: "ok", StartNs: 0, DurNs: 2000},
		{Trace: hx(1), Span: hx(10), Parent: hx(1), Name: obs.TSClientAttempt, Kind: obs.HopFirst, Proc: "lg", Lane: 0, Detail: "ok", StartNs: 10, DurNs: 1900},
		{Trace: hx(1), Span: hx(11), Parent: hx(1), Name: obs.TSClientAttempt, Kind: obs.HopHedge, Proc: "lg", Lane: 1, Detail: "cancelled", StartNs: 500, DurNs: 300},
		{Trace: hx(1), Span: hx(30), Parent: hx(10), Name: obs.TSRouteRequest, Kind: obs.HopFirst, Proc: "rt", Detail: "ok", StartNs: 100, DurNs: 1800},
		{Trace: hx(1), Span: hx(31), Parent: hx(30), Name: obs.TSRouteHop, Kind: obs.HopSkip, Proc: "rt", Backend: "http://b0", Detail: "breaker-open", StartNs: 105},
		{Trace: hx(1), Span: hx(33), Parent: hx(30), Name: obs.TSRouteHop, Kind: obs.HopFailover, Proc: "rt", Backend: "http://b2", Detail: "ok", StartNs: 420, DurNs: 1400},
		{Trace: hx(1), Span: hx(40), Parent: hx(33), Name: obs.TSServiceRequest, Kind: obs.HopFailover, Proc: "d2", Detail: "ok", StartNs: 7, DurNs: 1300},
		{Trace: hx(1), Span: hx(41), Parent: hx(40), Name: obs.TSServiceSolve, Kind: obs.HopSolve, Proc: "d2", StartNs: 20, DurNs: 1000},
	}
	var buf bytes.Buffer
	if err := obs.WriteTraceJSONL(&buf, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := obs.ReadTraceJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		res := Stitch(spans)
		BuildTraceReport(res)
		obs.TraceCanon(spans)
	})
}
