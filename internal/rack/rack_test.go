package rack

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"coaxial/internal/cxl"
	"coaxial/internal/sim"
	"coaxial/internal/trace"
)

// pooledRack builds an n-host rack of CoaxialPooled hosts sharing one pool
// device per host channel (the topology the root CoaxialPooled preset
// wires).
func pooledRack(n int) Config {
	host := sim.CoaxialPooled()
	cfg := Config{Name: "coaxial-pooled-rack"}
	for h := 0; h < n; h++ {
		cfg.Hosts = append(cfg.Hosts, host)
	}
	for ch := 0; ch < host.Channels; ch++ {
		cfg.Pooled = append(cfg.Pooled, cxl.PooledDeviceConfig{
			DDR:         host.DDR,
			DDRChannels: host.CXL.DDRChannels,
		})
	}
	return cfg
}

func testRC() sim.RunConfig {
	rc := sim.DefaultRunConfig()
	rc.WarmupInstr = 5_000
	rc.MeasureInstr = 20_000
	rc.FunctionalWarmupInstr = 50_000
	return rc
}

// TestOneHostMatchesSingleSystem pins the foundational identity: a 1-host
// rack — host 0, offset 0, ports into private pool devices — is
// bit-identical to the equivalent single-System run with cxl.Channel
// backends.
func TestOneHostMatchesSingleSystem(t *testing.T) {
	host := sim.CoaxialPooled()
	wl := trace.RackMix(0, 12)
	rc := testRC()

	single, err := sim.RunMix(host, wl, rc)
	if err != nil {
		t.Fatalf("single-system run: %v", err)
	}
	rr, err := Run(context.Background(), pooledRack(1), [][]trace.Workload{wl}, rc)
	if err != nil {
		t.Fatalf("rack run: %v", err)
	}
	if len(rr.Hosts) != 1 {
		t.Fatalf("got %d host results, want 1", len(rr.Hosts))
	}
	if !reflect.DeepEqual(single, rr.Hosts[0]) {
		t.Errorf("1-host rack diverged from single system:\nsingle: %+v\nrack:   %+v", single, rr.Hosts[0])
	}
}

// TestRackValidationClean runs a contended 2-host rack under the full
// differential harness: the shared-device oracles, per-host lifecycle
// checkers, and cross-host pending walks must all come back clean.
func TestRackValidationClean(t *testing.T) {
	rc := testRC()
	rc.Validate = true
	wls := [][]trace.Workload{trace.RackMix(0, 12), trace.RackMix(1, 12)}
	rr, err := Run(context.Background(), pooledRack(2), wls, rc)
	if err != nil {
		t.Fatalf("validated rack run: %v", err)
	}
	if len(rr.Hosts) != 2 || len(rr.Devices) != 2 {
		t.Fatalf("got %d hosts / %d devices, want 2 / 2", len(rr.Hosts), len(rr.Devices))
	}
	for h, hr := range rr.Hosts {
		if hr.Retired == 0 || hr.IPC <= 0 {
			t.Errorf("host %d made no progress: %+v", h, hr)
		}
	}
	if rr.FairnessIndex <= 0 || rr.FairnessIndex > 1 {
		t.Errorf("fairness index %v outside (0, 1]", rr.FairnessIndex)
	}
}

// TestRackStepAllocFree extends sim's TestStepAllocFree to the rack: once
// a 2-host pooled rack is warm, a lockstep Step (all three phases)
// allocates nothing, under both clockings.
func TestRackStepAllocFree(t *testing.T) {
	wls := [][]trace.Workload{trace.RackMix(0, 12), trace.RackMix(1, 12)}
	for _, mode := range []struct {
		name string
		m    sim.Clocking
	}{{"event", sim.EventDriven}, {"cycle", sim.CycleByCycle}} {
		t.Run(mode.name, func(t *testing.T) {
			rc := testRC()
			rc.Clocking = mode.m
			rk, err := build(pooledRack(2), wls, rc, nil)
			if err != nil {
				t.Fatal(err)
			}
			rk.SetTarget(math.MaxUint64)
			limit := rk.Now() + 1<<40
			for i := 0; i < 20_000; i++ {
				rk.Step(limit)
			}
			if allocs := testing.AllocsPerRun(2_000, func() { rk.Step(limit) }); allocs != 0 {
				t.Errorf("warm rack Step allocated %v objects per call, want 0", allocs)
			}
		})
	}
}

// TestRackSaturatedStretchAllocs counts every allocation over a 20k-step
// stretch of a warm 4-host pooled rack, whose ports stall at the shared
// devices' DDR queues. A step that allocates only now and then averages
// to 0 in AllocsPerRun's per-step integer count; the stretch total does
// not. Popping the stalled FIFO must not shed its backing array (~335
// allocations per stretch when it did, ~10 after).
func TestRackSaturatedStretchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steps a 4-host rack 120k times per clocking")
	}
	wls := make([][]trace.Workload, 4)
	for h := range wls {
		wls[h] = trace.RackMix(h%4, 12)
	}
	for _, mode := range []struct {
		name string
		m    sim.Clocking
	}{{"event", sim.EventDriven}, {"cycle", sim.CycleByCycle}} {
		t.Run(mode.name, func(t *testing.T) {
			rc := testRC()
			rc.Clocking = mode.m
			rk, err := build(pooledRack(4), wls, rc, nil)
			if err != nil {
				t.Fatal(err)
			}
			rk.SetTarget(math.MaxUint64)
			limit := rk.Now() + 1<<40
			for i := 0; i < 100_000; i++ {
				rk.Step(limit)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 20_000; i++ {
				rk.Step(limit)
			}
			runtime.ReadMemStats(&after)
			if allocs := after.Mallocs - before.Mallocs; allocs > 50 {
				t.Errorf("20k warm steps of a saturated 4-host rack allocated %d objects, want at most 50", allocs)
			}
		})
	}
}
