// Package synts is a from-scratch reproduction of "Synergistic Timing
// Speculation for Multi-Threaded Programs" (Yasin, 2016): a complete
// simulation stack — gate-level pipe-stage netlists with sensitized-delay
// timing analysis, a barrier-parallel workload suite, a multicore cache/CPI
// model, Razor-style error recovery — under the SynTS optimization
// algorithms (the provably optimal polynomial-time solver, an exact MILP
// cross-check, the Nominal / No-TS / Per-core-TS baselines, and the online
// sampling-based variant).
//
// The public surface lives in the internal packages by design — the
// repository is organised as a reproduction whose entry points are the
// cmd/synts experiment runner, which regenerates every table and figure
// of the thesis' evaluation, the cmd/stagesim and cmd/tracegen tools and
// the examples/ programs. The top-level bench_test.go holds
// micro-benchmarks of the solver, delay-trace and sampling layers.
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package synts
