// Quickstart: solve a SynTS instance in a dozen lines.
//
// Four threads race to a barrier. Thread 0's circuit paths are error-prone
// under timing speculation (its error probability rises as the clock
// shrinks); the others are clean. SynTS-Poly finds the optimal per-core
// voltage and timing-speculation ratio; compare it with running every core
// independently (per-core TS) and with plain DVFS (No TS).
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"

	"synts/internal/core"
	"synts/internal/vscale"
)

func main() {
	table := vscale.PaperTable()
	cfg := &core.Config{
		Voltages: vscale.PaperVoltages(),
		TNom:     func(v float64) float64 { return 1000 * table.TNom(v) }, // ps
		TSRs:     []float64{0.64, 0.712, 0.784, 0.856, 0.928, 1.0},
		CPenalty: 5, // Razor replay cycles
	}

	critical := core.Thread{N: 100000, CPIBase: 1.2, Err: core.ConstErr(0.95, 0.4)}
	clean := core.Thread{N: 100000, CPIBase: 1.2, Err: core.ConstErr(0.70, 0.02)}
	threads := []core.Thread{critical, clean, clean, clean}

	theta := 0.05 // weight of execution time vs energy (Eq. 4.4)

	for _, solver := range core.Solvers() {
		a, m := solver.Solve(cfg, threads, theta)
		fmt.Printf("%-12s energy %8.0f  t_exec %8.0f  cost %8.0f  EDP %12.3e\n",
			solver.Name, m.Energy, m.TExec, m.Cost, m.EDP())
		for i := range threads {
			fmt.Printf("    thread %d: V=%.2f r=%.3f (finishes at %.0f, slack %.0f)\n",
				i, a.V(cfg, i), a.R(cfg, i), m.ThreadTimes[i], m.TExec-m.ThreadTimes[i])
		}
	}
}
