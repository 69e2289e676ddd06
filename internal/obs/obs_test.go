package obs

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// Disabled instrumentation must hand out nil handles whose methods are all
// safe no-ops — the zero-cost contract every hot path relies on.
func TestDisabledAccessorsAreNilAndSafe(t *testing.T) {
	Disable()
	if c := C("x"); c != nil {
		t.Error("C must be nil while disabled")
	}
	if g := G("x"); g != nil {
		t.Error("G must be nil while disabled")
	}
	if h := H("x"); h != nil {
		t.Error("H must be nil while disabled")
	}
	if rg := StartRegion("x"); rg != nil {
		t.Error("StartRegion must be nil while disabled")
	}
	var c *Counter
	c.Add(1)
	if c.Value() != 0 {
		t.Error("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("nil histogram must read as empty")
	}
	var rg *Region
	rg.End()
	// A composed name, as the stage regions build theirs: the suffix is
	// not a constant, so concatenating it would allocate on every call.
	suffix := strings.Repeat("y", 3)
	for name, f := range map[string]func(){
		"C(n).Add(1)":                  func() { C("x").Add(1) },
		"H(n).Observe(1)":              func() { H("x").Observe(1) },
		"StartRegion(n).End()":         func() { StartRegion("x").End() },
		"StartRegion(n, suffix).End()": func() { StartRegion("x:", suffix).End() },
	} {
		if allocs := testing.AllocsPerRun(1000, f); allocs != 0 {
			t.Errorf("disabled %s allocates %.1f/op, want 0", name, allocs)
		}
	}
}

func TestEnableResetsAndRecords(t *testing.T) {
	Enable()
	defer Disable()
	C("a").Add(2)
	C("a").Add(3)
	if got := Default().Counter("a").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	G("g").Set(1.5)
	if got := Default().Gauge("g").Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	Enable() // reset
	if got := Default().Counter("a").Value(); got != 0 {
		t.Errorf("counter after reset = %d, want 0", got)
	}
}

// A region records its duration in the default registry's histogram of
// the same name, its parts joined.
func TestRegionRecordsHistogram(t *testing.T) {
	Enable()
	defer Disable()
	rg := StartRegion("trace.build_profiles:", "SimpleALU")
	time.Sleep(time.Millisecond)
	rg.End()
	h := Default().Snapshot().Histograms["trace.build_profiles:SimpleALU"]
	if h.Count != 1 || h.Sum < float64(time.Millisecond) {
		t.Errorf("region histogram = %+v, want one observation of at least 1ms", h)
	}
}

// The concurrency hammer of the issue checklist: counters, gauges,
// histograms and nested regions pounded from GOMAXPROCS goroutines under
// -race, with exact count/sum invariants checked afterwards.
func TestConcurrentRecording(t *testing.T) {
	Enable()
	defer Disable()
	r := NewRegistry()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perWorker; i++ {
				r.Counter("c").Add(1)
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(float64(i))
				rg := StartRegion("s")
				StartRegion("child").End()
				rg.End()
			}
		}()
	}
	wg.Wait()
	total := uint64(workers * perWorker)
	if got := r.Counter("c").Value(); got != int64(total) {
		t.Errorf("counter = %d, want %d", got, total)
	}
	h := r.Histogram("h")
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	wantSum := float64(workers) * perWorker * (perWorker + 1) / 2
	if math.Abs(h.Sum()-wantSum) > 1e-6*wantSum {
		t.Errorf("histogram sum = %g, want %g", h.Sum(), wantSum)
	}
	if h.Min() != 1 || h.Max() != perWorker {
		t.Errorf("min/max = %g/%g, want 1/%d", h.Min(), h.Max(), perWorker)
	}
	for _, name := range []string{"s", "child"} {
		if got := Default().Histogram(name).Count(); got != total {
			t.Errorf("region %s observations = %d, want %d", name, got, total)
		}
	}
}

// Histogram quantiles must stay within the documented relative error bound
// (sqrt(gamma)-1 ~ 2.47%) of the exact quantile from a sorted reference,
// across distributions of very different shape.
func TestHistogramQuantileErrorBounds(t *testing.T) {
	bound := math.Sqrt(histGamma) - 1 + 1e-9
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() float64{
		"uniform":     func() float64 { return 1 + 1e6*rng.Float64() },
		"exponential": func() float64 { return 1e3 * rng.ExpFloat64() },
		"lognormal":   func() float64 { return math.Exp(10 + 2*rng.NormFloat64()) },
		"tiny":        func() float64 { return 1e-6 * (1 + rng.Float64()) },
	}
	for name, draw := range dists {
		h := newHistogram(name)
		ref := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := draw()
			h.Observe(v)
			ref = append(ref, v)
		}
		sort.Float64s(ref)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			exact := ref[int(q*float64(len(ref)-1))]
			got := h.Quantile(q)
			if relErr := math.Abs(got-exact) / exact; relErr > bound {
				t.Errorf("%s q=%.2f: got %g want %g (rel err %.4f > %.4f)",
					name, q, got, exact, relErr, bound)
			}
		}
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	h := newHistogram("z")
	h.Observe(0)
	h.Observe(-5)
	h.Observe(10)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.25); q != 0 {
		t.Errorf("q25 = %g, want 0 (non-positive bucket)", q)
	}
	if q := h.Quantile(1); math.Abs(q-10)/10 > 0.05 {
		t.Errorf("q100 = %g, want ~10", q)
	}
}

// The zero-cost-when-disabled contract, benchmarked: the disabled path is
// an atomic load plus nil-check per call site.
func BenchmarkDisabledCounter(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		C("bench.counter").Add(1)
	}
}

func BenchmarkDisabledRegion(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StartRegion("bench.region").End()
	}
}

func BenchmarkEnabledCounter(b *testing.B) {
	Enable()
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		C("bench.counter").Add(1)
	}
}

func BenchmarkEnabledHistogram(b *testing.B) {
	Enable()
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		H("bench.hist").Observe(float64(i))
	}
}
