package coaxial

import (
	"context"
	"runtime"
	"testing"
)

// TestLoadedWindowAllocBudget pins the steady-state allocation of a warm
// loaded experiment window (the BenchmarkRunWindowLoaded configuration:
// 12 cores, COAXIAL-4x, mix 3), in objects and in bytes. With the request
// arena recycling memory requests and the SoA hot state reused across
// windows, a warm window allocates on the order of 1k objects (system
// construction and cloning the warm cache hierarchy once). The object
// budget is an order-of-magnitude tripwire for reintroduced per-request or
// per-cycle allocation, not a tight bound; the byte budget catches a
// second cache hierarchy per window (COAXIAL-4x's is 2.4 MB at 8 bytes
// per way).
func TestLoadedWindowAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window run in -short mode")
	}
	cfg := Coaxial4x()
	wl := MixWorkloads(3, 12)
	r := NewRunner(WithSeed(1), WithWindows(100_000, 5_000, 60_000))
	ctx := context.Background()
	// Prime the warm snapshot so the measured runs hit the sweep steady
	// state (see benchRunWindowWarm).
	if _, err := r.RunMix(ctx, cfg, wl); err != nil {
		t.Fatal(err)
	}
	const windows = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < windows; i++ {
		if _, err := r.RunMix(ctx, cfg, wl); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / windows
	mb := float64(after.TotalAlloc-before.TotalAlloc) / windows / 1e6
	// Observed ~950 objects and ~2.7 MB on a warm window with
	// alloccheck-clean hot paths. 2k objects leaves headroom for
	// cache-clone jitter while still tripping on any reintroduced
	// per-request allocation (60k requests/window); 4 MB trips on a
	// hierarchy built only to be overwritten by the clones (7.6 MB).
	const budget, budgetMB = 2_000, 4.0
	if allocs > budget {
		t.Errorf("warm loaded window allocated %d objects, budget %d", allocs, budget)
	}
	if mb > budgetMB {
		t.Errorf("warm loaded window allocated %.2f MB, budget %.0f MB", mb, budgetMB)
	}
	t.Logf("warm loaded window: %d allocs (budget %d), %.2f MB (budget %.0f MB)", allocs, budget, mb, budgetMB)
}
