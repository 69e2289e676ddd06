// Command stagesim inspects one pipe-stage circuit: STA summary, gate
// counts, and the sensitized-delay distribution it exhibits on a chosen
// benchmark's instruction stream — the circuit-level half of the
// cross-layer methodology (Fig 5.8), exposed as a standalone tool.
//
// Usage:
//
//	stagesim -stage SimpleALU -bench radix [-thread 0] [-size 2]
package main

import (
	"flag"
	"fmt"
	"os"

	"synts/internal/exp"
	"synts/internal/stats"
	"synts/internal/trace"
	"synts/internal/workload"
)

func main() {
	stage := flag.String("stage", "SimpleALU", "pipe stage: Decode, SimpleALU or ComplexALU")
	bench := flag.String("bench", "radix", "benchmark name (see -list)")
	thread := flag.Int("thread", 0, "thread whose stream to analyse")
	size := flag.Int("size", 2, "workload size knob")
	seed := flag.Int64("seed", 2016, "workload data seed")
	list := flag.Bool("list", false, "list benchmarks and exit")
	flag.Parse()

	if *list {
		for _, k := range workload.All() {
			fmt.Printf("%-12s %s\n", k.Name, k.Description)
		}
		return
	}

	st, err := exp.StageByName(*stage)
	if err != nil {
		fatal(err)
	}
	sc := trace.NewStageCircuit(st)
	fmt.Printf("stage %s: %d gates, %d nets, area %.0f INV units, STA critical path %.0f ps\n",
		st, len(sc.Netlist.Gates), sc.Netlist.NumNets(), sc.Netlist.Area(), sc.TCrit)

	k, err := workload.ByName(*bench)
	if err != nil {
		fatal(err)
	}
	streams := workload.RunKernel(k, 4, *size, *seed)
	if *thread < 0 || *thread >= len(streams) {
		fatal(fmt.Errorf("thread %d out of range", *thread))
	}
	var delays []float64
	var driving int
	for _, iv := range streams[*thread].Intervals {
		ds := sc.DelayTrace(iv)
		for i, d := range ds {
			delays = append(delays, d)
			if sc.Drives(iv[i]) {
				driving++
			}
		}
	}
	if len(delays) == 0 {
		fatal(fmt.Errorf("no instructions traced"))
	}
	fmt.Printf("benchmark %s thread %d: %d instructions, %d drive the stage (%.1f%%)\n",
		*bench, *thread, len(delays), driving, 100*float64(driving)/float64(len(delays)))
	fmt.Printf("sensitized delay: p50 %.0f  p90 %.0f  p99 %.0f  max %.0f ps (critical %.0f)\n",
		stats.Percentile(delays, 0.5), stats.Percentile(delays, 0.9),
		stats.Percentile(delays, 0.99), stats.Percentile(delays, 1.0), sc.TCrit)

	prof := trace.NewProfile(sc.TCrit, delays)
	fmt.Println("error probability vs timing speculation ratio:")
	for _, r := range exp.TSRs() {
		fmt.Printf("  r=%.3f  err=%.5f\n", r, prof.Err(r))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stagesim:", err)
	os.Exit(1)
}
