package exp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"synts/internal/core"
	"synts/internal/isa"
	"synts/internal/trace"
	"synts/internal/vscale"
)

// testOptions shrinks the workloads so the full driver suite stays fast.
func testOptions() Options {
	o := DefaultOptions()
	o.Size = 1
	return o
}

func loadBench(t *testing.T, name string, opts Options) *Bench {
	t.Helper()
	b, err := LoadBench(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTSRsMatchPaper(t *testing.T) {
	rs := TSRs()
	if len(rs) != 6 {
		t.Fatalf("want 6 TSR levels (§6.2), got %d", len(rs))
	}
	if rs[0] != 0.64 || rs[len(rs)-1] != 1.0 {
		t.Fatalf("TSR range [%v, %v], want [0.64, 1]", rs[0], rs[len(rs)-1])
	}
}

func TestPlatformValid(t *testing.T) {
	for _, st := range trace.Stages() {
		cfg := Platform(st, testOptions())
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if len(cfg.Voltages) != 7 {
			t.Fatalf("%v: %d voltage levels, want 7 (Table 5.1)", st, len(cfg.Voltages))
		}
		// t_nom at 0.65 V must be 2.63x the 1.0 V period.
		ratio := cfg.TNom(0.65) / cfg.TNom(1.0)
		if math.Abs(ratio-2.63) > 1e-9 {
			t.Fatalf("%v: TNom ratio %v, want 2.63", st, ratio)
		}
	}
}

// Platform reads each stage's critical path from trace's table; its TNom
// must be, bit for bit, the formula over a built netlist's STA result that
// the daemon's answers were computed with.
func TestPlatformTNomMatchesSTA(t *testing.T) {
	table := vscale.PaperTable()
	for _, st := range trace.Stages() {
		cfg := Platform(st, testOptions())
		tcrit := trace.NewStageCircuit(st).TCrit
		for _, v := range vscale.PaperVoltages() {
			if got, want := cfg.TNom(v), tcrit*table.TNom(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v at %v V: TNom %v, want %v", st, v, got, want)
			}
		}
	}
}

func TestLoadBenchTruncatesIntervals(t *testing.T) {
	opts := testOptions()
	opts.MaxIntervals = 2
	b := loadBench(t, "ocean", opts)
	dropped := 0
	for _, s := range b.Streams {
		if len(s.Intervals) != 2 {
			t.Fatalf("thread %d has %d intervals, want 2", s.Thread, len(s.Intervals))
		}
		for i, iv := range s.Intervals[:cap(s.Intervals)][opts.MaxIntervals:] {
			if iv != nil {
				t.Errorf("thread %d: dropped interval %d still reachable (%d instructions)", s.Thread, opts.MaxIntervals+i, len(iv))
			}
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no interval was dropped; the fixture does not exercise truncation")
	}
}

// Running a kernel allocates at most 1.1 times the instruction bytes its
// streams keep: a counting pass sizes each interval and the recording pass
// writes it once at that size, so no interval is regrown or copied. fmm,
// barnes and raytrace keep every interval, so no bytes LoadBench drops
// count against them. The test is not parallel, so the TotalAlloc delta is
// this run's.
func TestLoadBenchAllocationBound(t *testing.T) {
	for _, name := range []string{"fmm", "barnes", "raytrace"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b := loadBench(t, name, DefaultOptions())
		runtime.ReadMemStats(&after)
		kept := 0
		for _, s := range b.Streams {
			kept += s.TotalInstructions()
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(uintptr(kept)*unsafe.Sizeof(isa.Inst{}))
		t.Logf("%s: %d instructions kept, %.2fx their bytes allocated", name, kept, ratio)
		if ratio > 1.1 {
			t.Errorf("%s: running the kernel allocated %.2fx the bytes its streams keep, want at most 1.1x", name, ratio)
		}
	}
}

func TestLoadBenchUnknown(t *testing.T) {
	if _, err := LoadBench("nope", testOptions()); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestProfilesCached(t *testing.T) {
	b := loadBench(t, "ocean", testOptions())
	p1, err := b.Profiles(trace.SimpleALU)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := b.Profiles(trace.SimpleALU)
	if &p1[0] != &p2[0] {
		t.Error("profiles must be cached per stage")
	}
}

func TestStageByName(t *testing.T) {
	for _, st := range trace.Stages() {
		got, err := StageByName(st.String())
		if err != nil || got != st {
			t.Fatalf("StageByName(%v) = %v, %v", st, got, err)
		}
	}
	if _, err := StageByName("bogus"); err == nil {
		t.Fatal("bogus stage must error")
	}
}

func TestTable51(t *testing.T) {
	tbl := Table51()
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tbl.Rows))
	}
	var sb strings.Builder
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "2.63") {
		t.Error("rendered table must contain the 0.65 V multiplier 2.63")
	}
}

func TestFig12HasInteriorOptimum(t *testing.T) {
	b := loadBench(t, "radix", testOptions())
	s, err := Fig12(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.X) == 0 {
		t.Fatal("empty series")
	}
	profs, _ := b.Profiles(trace.SimpleALU)
	cfg := Platform(trace.SimpleALU, b.Opts)
	r := OptimalTSR(cfg, profs[0][0].CoreThread())
	if r >= 1.0 {
		t.Errorf("optimal TSR %v should be below 1 (speculation pays)", r)
	}
	if r < 0.6 {
		t.Errorf("optimal TSR %v suspiciously low", r)
	}
}

func TestFig14SlackExists(t *testing.T) {
	b := loadBench(t, "fmm", testOptions())
	s, err := Fig14(b)
	if err != nil {
		t.Fatal(err)
	}
	// FMM is imbalanced by construction: some barrier must show >10% slack.
	slackCol := len(s.Names) - 1
	found := false
	for _, row := range s.Y {
		if row[slackCol] > 10 {
			found = true
		}
	}
	if !found {
		t.Error("fmm should show barrier-arrival slack above 10%")
	}
}

func TestFig35Heterogeneity(t *testing.T) {
	b := loadBench(t, "radix", testOptions())
	s, err := Fig35(b, trace.SimpleALU, 0)
	if err != nil {
		t.Fatal(err)
	}
	// At the most aggressive ratio in the series, thread err values differ
	// substantially (Fig 3.5 shows ~4x).
	first := s.Y[0]
	lo, hi := first[0], first[0]
	for _, v := range first {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi <= 0 {
		t.Fatal("no errors at the most aggressive ratio")
	}
	if hi < 2*math.Max(lo, 1e-4) {
		t.Errorf("thread heterogeneity too weak: min %v, max %v", lo, hi)
	}
}

func TestFig36StepsImprove(t *testing.T) {
	b := loadBench(t, "radix", testOptions())
	tbl, err := Fig36(b, trace.SimpleALU, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("want 3 steps, got %d", len(tbl.Rows))
	}
	// The texec column of step 1 must improve on nominal (1.0), and step 2
	// must cut energy below step 1's without extending texec.
	parse := func(row int, col int) float64 {
		var v float64
		if _, err := fmtSscan(tbl.Rows[row][col], &v); err != nil {
			t.Fatalf("cell %d,%d = %q not numeric", row, col, tbl.Rows[row][col])
		}
		return v
	}
	texecCol, energyCol := 5, 6
	if parse(1, texecCol) >= 1.0 {
		t.Error("step 1 must reduce barrier time")
	}
	if parse(2, energyCol) >= parse(1, energyCol) {
		t.Error("step 2 must reduce energy")
	}
	if parse(2, texecCol) > parse(1, texecCol)+1e-9 {
		t.Error("step 2 must not extend the barrier")
	}
}

func TestFig47Schedule(t *testing.T) {
	tbl := Fig47(50000)
	if len(tbl.Rows) != len(TSRs()) {
		t.Fatalf("slots = %d", len(tbl.Rows))
	}
}

func TestFig510Homogeneous(t *testing.T) {
	tbl, h, err := Fig510("MatrixMult", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("want 6 VALU rows, got %d", len(tbl.Rows))
	}
	if h.MaxPairDistance > 0.35 {
		t.Errorf("lanes not homogeneous: %v", h.MaxPairDistance)
	}
}

func TestParetoSynTSDominatesPerCore(t *testing.T) {
	b := loadBench(t, "fmm", testOptions())
	pr, err := ParetoCtx(context.Background(), b, trace.SimpleALU)
	if err != nil {
		t.Fatal(err)
	}
	syn, pc := pr.Curves["SynTS"], pr.Curves["Per-core TS"]
	if len(syn) == 0 || len(pc) == 0 {
		t.Fatal("missing curves")
	}
	// Pointwise at each theta, SynTS cost <= per-core cost implies its
	// curve cannot be strictly worse in both axes anywhere.
	for i := range syn {
		if syn[i].Time > pc[i].Time+1e-9 && syn[i].Energy > pc[i].Energy+1e-9 {
			t.Errorf("theta %v: SynTS (%v,%v) strictly dominated by per-core (%v,%v)",
				syn[i].Weight, syn[i].Time, syn[i].Energy, pc[i].Time, pc[i].Energy)
		}
	}
	// SynTS's fastest configuration is at least as fast as No TS's.
	if pr.BestTime("SynTS") > pr.BestTime("No TS")+1e-9 {
		t.Error("timing speculation must beat No TS on best-case execution time")
	}
	// And at matched time budget 1.0, SynTS energy <= per-core energy.
	if pr.BestEnergyAt("SynTS", 1.0) > pr.BestEnergyAt("Per-core TS", 1.0)+1e-9 {
		t.Error("SynTS must reach lower energy than per-core TS at the nominal time budget")
	}
	// Rendering sanity.
	var sb strings.Builder
	pr.Series().Render(&sb)
	if !strings.Contains(sb.String(), "SynTS") {
		t.Error("render missing curves")
	}
}

func TestFig617EstimatesTrackActual(t *testing.T) {
	b := loadBench(t, "radix", testOptions())
	s, err := Fig617(b, trace.SimpleALU, 0)
	if err != nil {
		t.Fatal(err)
	}
	// §6.2: the timing-speculation-critical thread is identified by the
	// estimates. With short test intervals two threads can sit within
	// sampling noise of each other, so assert the operative property: the
	// thread the estimates rank first must be (near-)critical — its actual
	// error probability within 60% of the true maximum.
	row := s.Y[0] // most aggressive TSR
	bestActual, bestEst := 0, 0
	for t2 := 0; t2 < len(row)/2; t2++ {
		if row[2*t2] > row[2*bestActual] {
			bestActual = t2
		}
		if row[2*t2+1] > row[2*bestEst+1] {
			bestEst = t2
		}
	}
	if row[2*bestEst] < 0.6*row[2*bestActual] {
		t.Errorf("sampling picked T%d (actual err %v) but critical is T%d (actual err %v)",
			bestEst, row[2*bestEst], bestActual, row[2*bestActual])
	}
}

func TestFig618Shape(t *testing.T) {
	opts := testOptions()
	benches := []*Bench{loadBench(t, "radix", opts), loadBench(t, "ocean", opts)}
	rows, err := Fig618Ctx(context.Background(), benches, trace.SimpleALU)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SynTSOnline < 1-1e-9 {
			t.Errorf("%s: online EDP %v cannot beat offline", r.Bench, r.SynTSOnline)
		}
		if r.SynTSOnline > r.NoTS+1e-9 {
			t.Errorf("%s: online SynTS EDP %v must beat No TS %v (Fig 6.18)", r.Bench, r.SynTSOnline, r.NoTS)
		}
		if r.SynTSOnline > r.Nominal+1e-9 {
			t.Errorf("%s: online SynTS EDP %v must beat Nominal %v", r.Bench, r.SynTSOnline, r.Nominal)
		}
	}
	bg := Fig618Bars(rows, trace.SimpleALU)
	var sb strings.Builder
	bg.Render(&sb)
	if !strings.Contains(sb.String(), "radix") {
		t.Error("bar render missing groups")
	}
}

func TestOverheadReport(t *testing.T) {
	tbl, ov, err := OverheadReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("empty overhead table")
	}
	if ov.Area <= 0 || ov.Area > 0.10 {
		t.Errorf("area overhead %v implausible (paper: 2.7%%)", ov.Area)
	}
	if ov.Power <= 0 || ov.Power > 0.10 {
		t.Errorf("power overhead %v implausible (paper: 3.41%%)", ov.Power)
	}
}

func TestSolveAllSkipsEmptyIntervals(t *testing.T) {
	cfg := Platform(trace.SimpleALU, testOptions())
	ths := [][]core.Thread{
		{{N: 0, CPIBase: 1, Err: core.ZeroErr}, {N: 0, CPIBase: 1, Err: core.ZeroErr}},
		{{N: 100, CPIBase: 1, Err: core.ZeroErr}, {N: 50, CPIBase: 1, Err: core.ZeroErr}},
	}
	tot := SolveAll(cfg, ths, core.SolveNominal, 0)
	if tot.Time <= 0 || tot.Energy <= 0 {
		t.Fatal("non-empty interval must contribute")
	}
}

// fmtSscan wraps fmt.Sscan to keep the test body tidy.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestFig13Timelines(t *testing.T) {
	b := loadBench(t, "fmm", testOptions())
	lines, base, opt, err := Fig13(b, trace.SimpleALU, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2+2*4 {
		t.Fatalf("timeline output too short: %d lines", len(lines))
	}
	// SynTS must not lose on both axes against nominal.
	if opt.TotalTime >= base.TotalTime && opt.TotalEnergy >= base.TotalEnergy {
		t.Errorf("SynTS timeline worse on both axes: T %v vs %v, E %v vs %v",
			opt.TotalTime, base.TotalTime, opt.TotalEnergy, base.TotalEnergy)
	}
	// The nominal run of the imbalanced fmm must show wait segments.
	var sawWait bool
	for _, l := range lines {
		if strings.Contains(l, ".") && strings.Contains(l, "#") {
			sawWait = true
		}
	}
	if !sawWait {
		t.Error("fmm nominal timeline must contain wait segments")
	}
}

func TestJointStageStudyTable(t *testing.T) {
	b := loadBench(t, "radix", testOptions())
	tbl, err := JointStageStudy(b, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(TSRs()) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(TSRs()))
	}
	// Last row is r = 1: everything must be zero.
	last := tbl.Rows[len(tbl.Rows)-1]
	for col := 1; col < len(last); col++ {
		if last[col] != "0" {
			t.Errorf("r=1 column %d = %q, want 0", col, last[col])
		}
	}
}
