// Paretosweep: regenerate a Figs 6.11–6.16-style energy-vs-time Pareto
// curve for any benchmark and pipe stage, end to end: run the parallel
// kernel, extract per-instruction stage input vectors, measure sensitized
// delays against the gate-level netlist, build per-thread error-probability
// profiles, and sweep the SynTS-OPT weight theta across all approaches.
//
// Run: go run ./examples/paretosweep [-bench cholesky] [-stage Decode]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"synts/internal/exp"
)

func main() {
	bench := flag.String("bench", "cholesky", "benchmark (radix, fmm, cholesky, raytrace, ...)")
	stage := flag.String("stage", "Decode", "pipe stage (Decode, SimpleALU, ComplexALU)")
	size := flag.Int("size", 1, "workload size knob")
	flag.Parse()

	st, err := exp.StageByName(*stage)
	if err != nil {
		log.Fatal(err)
	}
	opts := exp.DefaultOptions()
	opts.Size = *size

	b, err := exp.LoadBench(*bench, opts)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := exp.ParetoCtx(context.Background(), b, st)
	if err != nil {
		log.Fatal(err)
	}
	pr.Series().Render(os.Stdout)

	fmt.Println()
	fmt.Printf("best (fastest) normalized time:  SynTS %.3f | Per-core TS %.3f | No TS %.3f\n",
		pr.BestTime("SynTS"), pr.BestTime("Per-core TS"), pr.BestTime("No TS"))
	syn := pr.BestEnergyAt("SynTS", 1.0)
	pc := pr.BestEnergyAt("Per-core TS", 1.0)
	fmt.Printf("lowest energy within nominal time: SynTS %.3f vs Per-core TS %.3f (%.1f%% lower)\n",
		syn, pc, (1-syn/pc)*100)
}
