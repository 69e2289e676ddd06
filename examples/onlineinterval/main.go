// Onlineinterval: the practical SynTS flow (§4.3) on one real barrier
// interval. The first N_samp instructions of each thread run as the
// sampling phase — split across the six timing-speculation ratios at the
// nominal voltage — and the observed Razor error counts become estimated
// error-probability functions. SynTS-Poly then picks each core's V/f for
// the rest of the interval. The example prints estimated vs actual error
// probabilities, the chosen configuration, and the cost of online SynTS
// against the offline oracle.
//
// Run: go run ./examples/onlineinterval [-bench radix] [-interval 0]
package main

import (
	"flag"
	"fmt"
	"log"

	"synts/internal/core"
	"synts/internal/exp"
	"synts/internal/razor"
	"synts/internal/telemetry"
	"synts/internal/trace"
)

func main() {
	bench := flag.String("bench", "radix", "benchmark")
	interval := flag.Int("interval", 0, "barrier interval")
	flag.Parse()

	opts := exp.DefaultOptions()
	b, err := exp.LoadBench(*bench, opts)
	if err != nil {
		log.Fatal(err)
	}
	profs, err := b.Profiles(trace.SimpleALU)
	if err != nil {
		log.Fatal(err)
	}
	if *interval < 0 || *interval >= len(profs[0]) {
		log.Fatalf("interval %d out of range (0..%d)", *interval, len(profs[0])-1)
	}
	cfg := exp.Platform(trace.SimpleALU, opts)

	ps := make([]*trace.Profile, len(profs))
	ths := make([]core.Thread, len(profs))
	nMin := 0
	for t := range profs {
		ps[t] = profs[t][*interval]
		ths[t] = ps[t].CoreThread()
		if ps[t].N > 0 && (nMin == 0 || ps[t].N < nMin) {
			nMin = ps[t].N
		}
	}
	nsamp := int(exp.NSampFrac * float64(nMin))
	budgets := make([]int, len(ps))
	per := make([]float64, len(ps))
	for t := range budgets {
		budgets[t], per[t] = nsamp, float64(nsamp)
	}
	est := razor.SamplingEstimator(telemetry.Scope{}, ps, cfg.TSRs, budgets, cfg.CPenalty, razor.SamplingGranule)

	fmt.Printf("%s barrier %d: sampling %d instructions per thread (%.0f%% of the smallest)\n\n",
		*bench, *interval, nsamp, exp.NSampFrac*100)
	fmt.Println("estimated vs actual error probability:")
	for t := range ps {
		fmt.Printf("  thread %d (N=%6d):", t, ps[t].N)
		for k, r := range cfg.TSRs {
			fmt.Printf("  r=%.2f %.3f/%.3f", r, est(t, k), ps[t].Err(r))
		}
		fmt.Println()
	}

	theta := exp.ThetaGrid(cfg, [][]core.Thread{ths}, []float64{1})[0]
	res := core.SolveOnline(cfg, ths, est, core.OnlineConfig{NSamp: per}, theta)
	_, off := core.SolvePoly(cfg, ths, theta)

	fmt.Println("\nchosen configuration for the remainder of the interval:")
	for t := range ths {
		fmt.Printf("  thread %d: V=%.2f V, r=%.3f\n", t, res.Assignment.V(cfg, t), res.Assignment.R(cfg, t))
	}
	fmt.Printf("\nonline cost  %.4g (sampling energy %.4g)\noffline cost %.4g\noverhead     %.1f%%\n",
		res.Metrics.Cost, res.SamplingEnergy, off.Cost, (res.Metrics.Cost/off.Cost-1)*100)
}
