package sim

import (
	"fmt"
	"reflect"
	"testing"

	"coaxial/internal/trace"
)

// TestClockingEquivalence is the golden guard for the main loop: the
// event-driven loop and the cycle-by-cycle reference must be bit-identical
// — every Result field (IPC, cycle counts, latency breakdown and histogram
// percentiles, DRAM counters, CALM tallies) equal across configs covering
// direct DDR, symmetric CXL, asymmetric CXL (two DDR channels per device),
// same-bank refresh, and a partially-idle machine, over low- and high-MPKI
// workloads and multiple seeds.
func TestClockingEquivalence(t *testing.T) {
	sbr := Baseline()
	sbr.Name = "ddr-baseline-refsb"
	sbr.DDR.SameBankRefresh = true

	cases := []struct {
		cfg       Config
		workloads []string
		seeds     []uint64
	}{
		{Baseline(), []string{"pop2", "gcc"}, []uint64{1, 2}},
		{Coaxial4x(), []string{"pop2", "gcc"}, []uint64{1, 2}},
		{CoaxialAsym(), []string{"pop2", "bwaves"}, []uint64{1, 2}},
		{CoaxialPooled(), []string{"pop2", "gcc"}, []uint64{1, 2}},
		{sbr, []string{"raytrace"}, []uint64{1, 2}},
		// Mostly-idle machine: one active core, the regime where the event
		// loop skips the most and lazy per-component ticking matters.
		{CoaxialAsym().WithActiveCores(1), []string{"pop2"}, []uint64{1, 2}},
	}

	for _, tc := range cases {
		for _, wname := range tc.workloads {
			w, err := trace.WorkloadByName(wname)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range tc.seeds {
				t.Run(fmt.Sprintf("%s/%s/seed%d", tc.cfg.Name, wname, seed), func(t *testing.T) {
					rc := RunConfig{
						FunctionalWarmupInstr: 50_000,
						WarmupInstr:           2_000,
						MeasureInstr:          10_000,
						Seed:                  seed,
					}
					rc.Clocking = EventDriven
					ref, err := Run(tc.cfg, w, rc)
					if err != nil {
						t.Fatalf("event-driven: %v", err)
					}
					rc.Clocking = CycleByCycle
					got, err := Run(tc.cfg, w, rc)
					if err != nil {
						t.Fatalf("cycle-by-cycle: %v", err)
					}
					if !reflect.DeepEqual(ref, got) {
						t.Errorf("cycle-by-cycle diverges from event-driven\nref: %+v\ngot: %+v", ref, got)
					}
				})
			}
		}
	}
}

// TestClockingEquivalenceRackMix extends the clocking equivalence guard to
// multi-core mixed-MPKI runs on the CXL-pooled configs: every core runs a
// different workload (the rack assignment), so per-core generators, CALM
// state, and backend queues all differ — the regime where a phase-ordering
// bug in the event loop would show.
func TestClockingEquivalenceRackMix(t *testing.T) {
	for _, cfg := range []Config{Coaxial4x(), CoaxialPooled()} {
		for _, rack := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/rack%d", cfg.Name, rack), func(t *testing.T) {
				wl := trace.RackMix(rack, cfg.Cores)
				rc := RunConfig{
					FunctionalWarmupInstr: 50_000,
					WarmupInstr:           2_000,
					MeasureInstr:          10_000,
					Seed:                  1,
					Clocking:              EventDriven,
				}
				ref, err := RunMix(cfg, wl, rc)
				if err != nil {
					t.Fatalf("event-driven: %v", err)
				}
				rc.Clocking = CycleByCycle
				got, err := RunMix(cfg, wl, rc)
				if err != nil {
					t.Fatalf("cycle-by-cycle: %v", err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("cycle-by-cycle diverges from event-driven\nref: %+v\ngot: %+v", ref, got)
				}
			})
		}
	}
}

// TestClockingEquivalenceBenchSteps pins the fixed-cycle-window entry point
// (BenchSteps) too: after the same number of cycles in each mode, the
// systems must agree on retired-instruction counts and DRAM activity.
func TestClockingEquivalenceBenchSteps(t *testing.T) {
	w, err := trace.WorkloadByName("pop2")
	if err != nil {
		t.Fatal(err)
	}
	wl := make([]trace.Workload, 12)
	for i := range wl {
		wl[i] = w
	}
	build := func(m Clocking) *System {
		sys, err := NewSystem(Coaxial4x(), wl, 7)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetClocking(m)
		return sys
	}
	ev, cyc := build(EventDriven), build(CycleByCycle)
	for _, n := range []int{1, 999, 30_000} {
		ev.BenchSteps(n)
		cyc.BenchSteps(n)
		if ev.now != cyc.now {
			t.Fatalf("clock diverged: event %d vs cycle %d", ev.now, cyc.now)
		}
		ev.syncClock()
		for i := range ev.cores {
			if es, cs := ev.cores[i].Stats(), cyc.cores[i].Stats(); es != cs {
				t.Fatalf("cycle %d core %d stats diverge: event %+v cycle %+v", ev.now, i, es, cs)
			}
		}
		for ch := range ev.backends {
			if ec, cc := ev.backends[ch].Counters(), cyc.backends[ch].Counters(); ec != cc {
				t.Fatalf("cycle %d backend %d counters diverge:\nevent: %+v\ncycle: %+v", ev.now, ch, ec, cc)
			}
		}
	}
}
