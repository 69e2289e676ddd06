package mcsim

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"synts/internal/core"
	"synts/internal/cpu"
	"synts/internal/isa"
	"synts/internal/trace"
	"synts/internal/vscale"
	"synts/internal/workload"
)

func platform() *core.Config {
	tcrit := trace.NewStageCircuit(trace.SimpleALU).TCrit
	table := vscale.PaperTable()
	return &core.Config{
		Voltages: vscale.PaperVoltages(),
		TNom:     func(v float64) float64 { return tcrit * table.TNom(v) },
		TSRs:     []float64{0.64, 0.712, 0.784, 0.856, 0.928, 1.0},
		CPenalty: 5,
	}
}

var (
	inputCacheMu sync.Mutex
	inputCache   = map[string]Input{}
)

// loadInput builds (once per benchmark) the characterised input; tests
// share it read-only apart from the Assignments field they each set.
func loadInput(t *testing.T, bench string) Input {
	t.Helper()
	inputCacheMu.Lock()
	defer inputCacheMu.Unlock()
	if in, ok := inputCache[bench]; ok {
		return in
	}
	k, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	streams := workload.RunKernel(k, 4, 1, 17)
	cacheCfg := cpu.DefaultL1()
	profs, err := trace.BuildProfilesScopedCtx(context.Background(), "", streams, trace.SimpleALU, cacheCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{
		Streams:  streams,
		Profiles: profs,
		Platform: platform(),
		Cache:    cacheCfg,
	}
	inputCache[bench] = in
	return in
}

func uniform(cfg *core.Config, cores, vIdx, rIdx int) core.Assignment {
	a := core.Assignment{VIdx: make([]int, cores), RIdx: make([]int, cores)}
	for i := range a.VIdx {
		a.VIdx[i], a.RIdx[i] = vIdx, rIdx
	}
	return a
}

// The end-to-end consistency theorem of the whole stack: a cycle-level
// execution must produce exactly the interval times and energies the
// analytic model (Eqs. 4.1–4.3) predicts, because both count the same
// cache misses and the same Razor error events.
func TestSimulatorMatchesAnalyticModel(t *testing.T) {
	in := loadInput(t, "radix")
	cfg := in.Platform
	nIv := len(in.Streams[0].Intervals)
	for _, lv := range [][2]int{{0, 5}, {0, 0}, {3, 2}} { // (vIdx, rIdx)
		a := uniform(cfg, 4, lv[0], lv[1])
		in.Assignments = []core.Assignment{a}
		res, err := Run(in)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for ii := 0; ii < nIv; ii++ {
			ths := make([]core.Thread, 4)
			for ti := range ths {
				ths[ti] = in.Profiles[ti][ii].CoreThread()
			}
			m := cfg.Evaluate(ths, a, 0)
			simDur := res.BarrierTimes[ii] - prev
			prev = res.BarrierTimes[ii]
			if math.Abs(simDur-m.TExec) > 1e-6*math.Max(m.TExec, 1) {
				t.Fatalf("levels %v interval %d: simulated %v vs analytic %v", lv, ii, simDur, m.TExec)
			}
			var simEn float64
			for ti := range ths {
				simEn += res.Cores[ii][ti].Energy
			}
			if math.Abs(simEn-m.Energy) > 1e-6*math.Max(m.Energy, 1) {
				t.Fatalf("levels %v interval %d: simulated energy %v vs analytic %v", lv, ii, simEn, m.Energy)
			}
		}
	}
}

func TestErrorCountsMatchProfiles(t *testing.T) {
	in := loadInput(t, "radix")
	a := uniform(in.Platform, 4, 0, 0) // most aggressive ratio
	in.Assignments = []core.Assignment{a}
	res, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	r := in.Platform.TSRs[0]
	for ii := range res.Cores {
		for ti, ci := range res.Cores[ii] {
			p := in.Profiles[ti][ii]
			want := int(math.Round(p.Err(r) * float64(p.N)))
			if ci.Errors != want {
				t.Fatalf("interval %d core %d: %d errors, profile says %d", ii, ti, ci.Errors, want)
			}
		}
	}
	if res.TotalErrors == 0 {
		t.Error("aggressive speculation should produce errors")
	}
}

func TestWaitsNonNegativeAndOneCriticalCore(t *testing.T) {
	in := loadInput(t, "fmm")
	in.Assignments = []core.Assignment{uniform(in.Platform, 4, 0, 5)}
	res, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for ii := range res.Cores {
		zeroWaits := 0
		for _, ci := range res.Cores[ii] {
			if ci.Wait < -1e-9 {
				t.Fatalf("interval %d: negative wait %v", ii, ci.Wait)
			}
			if ci.Wait < 1e-9 {
				zeroWaits++
			}
		}
		if zeroWaits == 0 {
			t.Fatalf("interval %d: some core must be critical (zero wait)", ii)
		}
	}
	// fmm is imbalanced: someone must actually wait.
	totalWait := 0.0
	for ii := range res.Cores {
		for _, ci := range res.Cores[ii] {
			totalWait += ci.Wait
		}
	}
	if totalWait <= 0 {
		t.Error("fmm under uniform V/f must show barrier waiting")
	}
}

func TestSynTSReducesWaitVsNominal(t *testing.T) {
	in := loadInput(t, "fmm")
	cfg := in.Platform
	nIv := len(in.Streams[0].Intervals)
	nominal := uniform(cfg, 4, 0, len(cfg.TSRs)-1)
	in.Assignments = []core.Assignment{nominal}
	base, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	// Per-interval SynTS assignments.
	assigns := make([]core.Assignment, nIv)
	for ii := 0; ii < nIv; ii++ {
		ths := make([]core.Thread, 4)
		for ti := range ths {
			ths[ti] = in.Profiles[ti][ii].CoreThread()
		}
		theta := base.TotalEnergy / base.TotalTime
		assigns[ii], _ = core.SolvePoly(cfg, ths, theta)
	}
	in.Assignments = assigns
	opt, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalEnergy+1e-9 >= base.TotalEnergy && opt.TotalTime+1e-9 >= base.TotalTime {
		t.Errorf("SynTS assignment should beat nominal on at least one axis: E %v vs %v, T %v vs %v",
			opt.TotalEnergy, base.TotalEnergy, opt.TotalTime, base.TotalTime)
	}
}

func TestTimeline(t *testing.T) {
	in := loadInput(t, "fmm")
	in.Assignments = []core.Assignment{uniform(in.Platform, 4, 0, 5)}
	res, err := Run(in)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Timeline(60)
	if len(rows) != 4 {
		t.Fatalf("timeline rows = %d", len(rows))
	}
	for _, row := range rows {
		if !strings.Contains(row, "#") || !strings.Contains(row, "|") {
			t.Errorf("timeline row missing busy/barrier glyphs: %q", row)
		}
	}
	// The imbalanced kernel must show waiting somewhere.
	joined := strings.Join(rows, "")
	if !strings.Contains(joined, ".") {
		t.Error("fmm timeline must contain wait segments")
	}
}

func TestRunValidation(t *testing.T) {
	in := loadInput(t, "ocean")
	in.Assignments = nil
	if _, err := Run(in); err == nil {
		t.Error("missing assignments accepted")
	}
	in.Assignments = []core.Assignment{uniform(in.Platform, 2, 0, 5)} // wrong core count
	if _, err := Run(in); err == nil {
		t.Error("mismatched assignment width accepted")
	}
}

// Differential check of the simulator's code compare against a float64
// count of delays above r * TCrit, at every TSR, on an empty window, an
// all-zero window, random windows with heavy duplicates whose levels
// include r * TCrit itself, and windows of 256, 65,536 and 65,537 distinct
// delays, whose codes take 1, 2 and 4 bytes and whose cut at r = 1 is
// len(Levels).
func TestRunErrorsMatchFloatReference(t *testing.T) {
	cfg := platform()
	const tcrit = 8 // a power of two, so r * tcrit is exact
	levels := []float64{0, 1.5, 7.875}
	for _, r := range cfg.TSRs {
		levels = append(levels, r*tcrit)
	}
	rng := rand.New(rand.NewSource(17))
	delays := [][][]float64{{{}, make([]float64, 30)}} // [interval][core]
	for ii := 0; ii < 3; ii++ {
		w := make([][]float64, 2)
		for c := range w {
			w[c] = make([]float64, rng.Intn(500))
			for i := range w[c] {
				w[c][i] = levels[rng.Intn(len(levels))]
			}
		}
		delays = append(delays, w)
	}
	delays = append(delays,
		[][]float64{spreadWindow(rng, 1<<8, 1.0/32), spreadWindow(rng, 1<<16, 1.0/8192)},
		[][]float64{spreadWindow(rng, 1<<16+1, 1.0/8192), make([]float64, 7)})
	in := Input{Platform: cfg, Cache: cpu.DefaultL1()}
	for c := 0; c < 2; c++ {
		s := &workload.Stream{Thread: c}
		var profs []*trace.Profile
		for _, w := range delays {
			s.Intervals = append(s.Intervals, make([]isa.Inst, len(w[c]))) // NOPs: no cache traffic
			profs = append(profs, trace.NewProfile(tcrit, w[c]))
		}
		in.Streams = append(in.Streams, s)
		in.Profiles = append(in.Profiles, profs)
	}
	for rIdx, r := range cfg.TSRs {
		in.Assignments = []core.Assignment{uniform(cfg, 2, 0, rIdx)}
		res, err := Run(in)
		if err != nil {
			t.Fatal(err)
		}
		for ii, w := range delays {
			for c, d := range w {
				want := 0
				for _, x := range d {
					if x > r*tcrit {
						want++
					}
				}
				if got := res.Cores[ii][c].Errors; got != want {
					t.Fatalf("r %v interval %d core %d: %d errors, float reference %d", r, ii, c, got, want)
				}
			}
		}
	}
}

// spreadWindow returns a shuffled window holding exactly distinct
// different multiples of step from 0, a third of them twice.
func spreadWindow(rng *rand.Rand, distinct int, step float64) []float64 {
	w := make([]float64, distinct+distinct/3)
	for i := range w {
		w[i] = float64(i%distinct) * step
	}
	rng.Shuffle(len(w), func(a, b int) { w[a], w[b] = w[b], w[a] })
	return w
}
