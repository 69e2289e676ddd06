package workload

import (
	"fmt"
	"sort"
)

// Kernel is one benchmark in the suite. Make builds the shared data
// structures (sized by size, seeded by seed) and returns the per-thread
// body; RunKernel executes it under the barrier runtime.
type Kernel struct {
	Name        string
	Description string
	// Heterogeneous documents whether the kernel is expected to show
	// thread-heterogeneous error probabilities (the paper's Section 5.4
	// finds FFT, Ocean and Water-sp homogeneous).
	Heterogeneous bool
	Make          func(threads, size int, seed int64) func(tc *TC)
}

var registry = map[string]Kernel{}

func register(k Kernel) {
	if _, dup := registry[k.Name]; dup {
		panic("workload: duplicate kernel " + k.Name)
	}
	registry[k.Name] = k
}

// All returns every registered kernel, sorted by name.
func All() []Kernel {
	ks := make([]Kernel, 0, len(registry))
	for _, k := range registry {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].Name < ks[j].Name })
	return ks
}

// ByName returns the kernel with the given name.
func ByName(name string) (Kernel, error) {
	k, ok := registry[name]
	if !ok {
		return Kernel{}, fmt.Errorf("workload: unknown kernel %q", name)
	}
	return k, nil
}

// RunKernel executes a kernel and returns the per-thread streams. It calls
// Make once for each of Run's two passes, so each starts from fresh data.
func RunKernel(k Kernel, threads, size int, seed int64) []*Stream {
	return Run(threads, seed, func() func(tc *TC) { return k.Make(threads, size, seed) })
}

// PaperSuite lists the seven heterogeneous benchmarks whose results the
// thesis reports (Section 5.4 drops FFT, Ocean and Water-sp).
func PaperSuite() []string {
	return []string{"barnes", "cholesky", "fmm", "lu-contig", "lu-ncontig", "radix", "raytrace"}
}

// FullSuite lists all ten characterised benchmarks.
func FullSuite() []string {
	return []string{"barnes", "cholesky", "fft", "fmm", "lu-contig", "lu-ncontig", "ocean", "radix", "raytrace", "water-sp"}
}
