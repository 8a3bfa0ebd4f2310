package rack

import (
	"context"
	"reflect"
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

// TestRackParallelTickRace exercises the rack worker pool under the race
// detector: phase H must touch only host-private state.
func TestRackParallelTickRace(t *testing.T) {
	rc := testRC()
	rc.RackParallelism = 4
	wls := make([][]trace.Workload, 4)
	for h := range wls {
		wls[h] = trace.RackMix(h, 12)
	}
	seqRC := rc
	seqRC.RackParallelism = 1
	par, err := Run(context.Background(), pooledRack(4), wls, rc)
	if err != nil {
		t.Fatalf("parallel rack run: %v", err)
	}
	seq, err := Run(context.Background(), pooledRack(4), wls, seqRC)
	if err != nil {
		t.Fatalf("sequential rack run: %v", err)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Errorf("rack results diverge across RackParallelism:\npar: %+v\nseq: %+v", par, seq)
	}
}
