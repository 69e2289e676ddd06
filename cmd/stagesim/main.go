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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"synts/internal/exp"
	"synts/internal/stats"
	"synts/internal/trace"
	"synts/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams: it returns
// 0 on success, 1 on a failure and 2 on a usage error, which it reports
// before any kernel runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stagesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stage := fs.String("stage", "SimpleALU", "pipe stage: Decode, SimpleALU or ComplexALU")
	bench := fs.String("bench", "radix", "benchmark name (see -list)")
	thread := fs.Int("thread", 0, "thread whose stream to analyse")
	size := fs.Int("size", 2, "workload size knob")
	seed := fs.Int64("seed", 2016, "workload data seed")
	list := fs.Bool("list", false, "list benchmarks and exit")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	if *size < 1 {
		fmt.Fprintf(stderr, "stagesim: -size %d: need a size of at least 1\n", *size)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "stagesim:", err)
		return 1
	}

	if *list {
		for _, k := range workload.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", k.Name, k.Description)
		}
		return 0
	}

	st, err := exp.StageByName(*stage)
	if err != nil {
		return fail(err)
	}
	sc := trace.NewStageCircuit(st)
	fmt.Fprintf(stdout, "stage %s: %d gates, %d nets, area %.0f INV units, STA critical path %.0f ps\n",
		st, len(sc.Netlist.Gates), sc.Netlist.NumNets(), sc.Netlist.Area(), sc.TCrit)

	k, err := workload.ByName(*bench)
	if err != nil {
		return fail(err)
	}
	streams := workload.RunKernel(k, 4, *size, *seed)
	if *thread < 0 || *thread >= len(streams) {
		return fail(fmt.Errorf("thread %d out of range", *thread))
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
		return fail(fmt.Errorf("no instructions traced"))
	}
	fmt.Fprintf(stdout, "benchmark %s thread %d: %d instructions, %d drive the stage (%.1f%%)\n",
		*bench, *thread, len(delays), driving, 100*float64(driving)/float64(len(delays)))
	fmt.Fprintf(stdout, "sensitized delay: p50 %.0f  p90 %.0f  p99 %.0f  max %.0f ps (critical %.0f)\n",
		stats.Percentile(delays, 0.5), stats.Percentile(delays, 0.9),
		stats.Percentile(delays, 0.99), stats.Percentile(delays, 1.0), sc.TCrit)

	prof := trace.NewProfile(sc.TCrit, delays)
	fmt.Fprintln(stdout, "error probability vs timing speculation ratio:")
	for _, r := range exp.TSRs() {
		fmt.Fprintf(stdout, "  r=%.3f  err=%.5f\n", r, prof.Err(r))
	}
	return 0
}
