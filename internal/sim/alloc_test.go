package sim

import (
	"math"
	"testing"

	"coaxial/internal/trace"
)

// TestStepAllocFree is the dynamic check behind alloccheck's hot-path
// roots: once a system is warm, a Step allocates nothing, under both
// clockings, on a loaded CXL host, the DDR baseline and a lone core on
// mostly idle CXL links.
func TestStepAllocFree(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		wl   []trace.Workload
	}{
		{"coaxial-4x/mix3", Coaxial4x(), trace.Mix(3, 12)},
		{"ddr-baseline/mix3", Baseline(), trace.Mix(3, 12)},
		{"coaxial-asym@1c/canneal", CoaxialAsym().WithActiveCores(1), []trace.Workload{mustWorkload(t, "canneal")}},
	} {
		for _, mode := range []struct {
			name string
			m    Clocking
		}{{"event", EventDriven}, {"cycle", CycleByCycle}} {
			t.Run(c.name+"/"+mode.name, func(t *testing.T) {
				rc := RunConfig{FunctionalWarmupInstr: 50_000, Seed: 1, Clocking: mode.m}
				sys, err := NewSystem(c.cfg, c.wl, rc.Seed)
				if err != nil {
					t.Fatal(err)
				}
				sys.Configure(rc)
				sys.Prewarm(rc)
				sys.SetTarget(math.MaxUint64)
				limit := sys.Now() + 1<<40
				for i := 0; i < 20_000; i++ {
					sys.Step(limit)
				}
				if allocs := testing.AllocsPerRun(2_000, func() { sys.Step(limit) }); allocs != 0 {
					t.Errorf("warm Step allocated %v objects per call, want 0", allocs)
				}
			})
		}
	}
}
