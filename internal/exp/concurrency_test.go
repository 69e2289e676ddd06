package exp

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"synts/internal/cpu"
	"synts/internal/trace"
	"synts/internal/workload"
)

// stubBuilds replaces the profile builder with a counting stub and returns
// the counter plus a restore function.
func stubBuilds(t *testing.T) *atomic.Int32 {
	t.Helper()
	orig := buildProfiles
	t.Cleanup(func() { buildProfiles = orig })
	var builds atomic.Int32
	buildProfiles = func(ctx context.Context, kernel string, streams []*workload.Stream, stage trace.Stage, cfg cpu.CacheConfig) ([][]*trace.Profile, error) {
		builds.Add(1)
		return orig(ctx, kernel, streams, stage, cfg)
	}
	return &builds
}

// The Bench.Profiles double-computation regression: two goroutines asking
// for the same stage at the same time must trigger exactly one build, and
// both must see the same result.
func TestProfilesSingleflight(t *testing.T) {
	builds := stubBuilds(t)
	b := loadBench(t, "ocean", testOptions())
	const callers = 8
	results := make([][][]*trace.Profile, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := b.Profiles(trace.SimpleALU)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = p
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d concurrent callers triggered %d builds, want exactly 1", callers, n)
	}
	for i := 1; i < callers; i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatalf("caller %d got a different profile slice", i)
		}
	}
}

// Unrelated stages must not serialize on a shared lock: a build for one
// stage held mid-flight must not block a build for another. We can't
// observe blocking directly, but we can assert both complete and each
// stage builds once.
func TestProfilesPerStageBuilds(t *testing.T) {
	builds := stubBuilds(t)
	b := loadBench(t, "ocean", testOptions())
	var wg sync.WaitGroup
	for _, st := range trace.Stages() {
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := b.Profiles(st); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	if n := builds.Load(); n != int32(len(trace.Stages())) {
		t.Errorf("%d builds, want one per stage (%d)", n, len(trace.Stages()))
	}
}

// Profile build errors must be memoized like successes: every caller sees
// the same error and the build still runs only once.
func TestProfilesSingleflightError(t *testing.T) {
	orig := buildProfiles
	t.Cleanup(func() { buildProfiles = orig })
	var builds atomic.Int32
	fail := errors.New("synthetic build failure")
	buildProfiles = func(context.Context, string, []*workload.Stream, trace.Stage, cpu.CacheConfig) ([][]*trace.Profile, error) {
		builds.Add(1)
		return nil, fail
	}
	b := loadBench(t, "ocean", testOptions())
	for i := 0; i < 3; i++ {
		if _, err := b.Profiles(trace.Decode); !errors.Is(err, fail) {
			t.Fatalf("call %d: err = %v, want the memoized failure", i, err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("failed build ran %d times, want 1", n)
	}
}

// Cross-experiment bench sharing: concurrent Load calls for the same
// (name, options) key run the kernel once and hand every caller the same
// *Bench; a different key gets its own.
func TestBenchCacheSingleflight(t *testing.T) {
	orig := loadBenchImpl
	t.Cleanup(func() { loadBenchImpl = orig })
	var loads atomic.Int32
	loadBenchImpl = func(name string, opts Options) (*Bench, error) {
		loads.Add(1)
		return orig(name, opts)
	}
	c := NewBenchCache()
	opts := testOptions()
	const callers = 6
	got := make([]*Bench, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := c.LoadCtx(context.Background(), "ocean", opts)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = b
		}()
	}
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Errorf("%d concurrent loads ran the kernel %d times, want 1", callers, n)
	}
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different *Bench", i)
		}
	}
	// A different options key is a different benchmark run.
	opts2 := opts
	opts2.Seed++
	b2, err := c.LoadCtx(context.Background(), "ocean", opts2)
	if err != nil {
		t.Fatal(err)
	}
	if b2 == got[0] {
		t.Error("different options must not share a cache entry")
	}
	if n := loads.Load(); n != 2 {
		t.Errorf("loads = %d, want 2", n)
	}
}

func TestBenchCacheUnknownBench(t *testing.T) {
	c := NewBenchCache()
	if _, err := c.LoadCtx(context.Background(), "nope", testOptions()); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

// A cancelled build must not poison the profile memo: the next caller
// with a live context rebuilds and succeeds.
func TestProfilesCtxCancelDoesNotPoison(t *testing.T) {
	builds := stubBuilds(t)
	b := loadBench(t, "ocean", testOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.ProfilesCtx(ctx, trace.SimpleALU); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build err = %v, want context.Canceled", err)
	}
	p, err := b.Profiles(trace.SimpleALU)
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if p == nil {
		t.Fatal("retry returned nil profiles")
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("builds = %d, want 2 (cancelled + successful retry)", n)
	}
}

func TestBenchCacheLoadCtxCancelDoesNotPoison(t *testing.T) {
	c := NewBenchCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.LoadCtx(ctx, "ocean", testOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled load err = %v, want context.Canceled", err)
	}
	b, err := c.LoadCtx(context.Background(), "ocean", testOptions())
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if b == nil {
		t.Fatal("retry returned nil bench")
	}
}

func TestParetoCtxCancelled(t *testing.T) {
	b := loadBench(t, "ocean", testOptions())
	if _, err := b.Profiles(trace.SimpleALU); err != nil {
		t.Fatal(err) // pre-build so cancellation hits the sweep itself
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ParetoCtx(ctx, b, trace.SimpleALU); !errors.Is(err, context.Canceled) {
		t.Fatalf("ParetoCtx = %v, want context.Canceled", err)
	}
}
