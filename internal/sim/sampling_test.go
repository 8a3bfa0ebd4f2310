package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"coaxial/internal/trace"
)

// relErr returns |got-ref|/|ref| (0 when both are 0).
func relErr(ref, got float64) float64 {
	if ref == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-ref) / math.Abs(ref)
}

// TestSampledAccuracyBudget is the accuracy gate for sampled simulation:
// against the full detailed run of the same budget, sampled headline
// metrics (mean IPC and mean L2-miss latency) must agree within 2%. The
// synthetic workloads are stationary, so systematic sampling's error here
// comes only from window truncation and fast-forward boundary effects.
func TestSampledAccuracyBudget(t *testing.T) {
	const tol = 0.02
	for _, cfg := range []Config{Baseline(), Coaxial4x()} {
		for _, wname := range []string{"pop2", "gcc"} {
			t.Run(fmt.Sprintf("%s/%s", cfg.Name, wname), func(t *testing.T) {
				w, err := trace.WorkloadByName(wname)
				if err != nil {
					t.Fatal(err)
				}
				rc := RunConfig{
					FunctionalWarmupInstr: 100_000,
					WarmupInstr:           10_000,
					MeasureInstr:          150_000,
					Seed:                  1,
				}
				ref, err := Run(cfg, w, rc)
				if err != nil {
					t.Fatalf("detailed: %v", err)
				}
				// 30% detail: windows of 15k separated by 35k fast-forwarded.
				rc.SampleDetailInstr = 15_000
				rc.SampleFastFwdInstr = 35_000
				got, err := Run(cfg, w, rc)
				if err != nil {
					t.Fatalf("sampled: %v", err)
				}
				if e := relErr(ref.IPC, got.IPC); e > tol {
					t.Errorf("IPC error %.3f%% exceeds %.0f%%: detailed %.4f sampled %.4f",
						100*e, 100*tol, ref.IPC, got.IPC)
				}
				if e := relErr(ref.TotalNS, got.TotalNS); e > tol {
					t.Errorf("TotalNS error %.3f%% exceeds %.0f%%: detailed %.2f sampled %.2f",
						100*e, 100*tol, ref.TotalNS, got.TotalNS)
				}
				if got.Cycles >= ref.Cycles {
					t.Errorf("sampled detailed-cycle count %d not below detailed run's %d",
						got.Cycles, ref.Cycles)
				}
			})
		}
	}
}

// TestSampledClockingEquivalence pins sampled mode to the same determinism
// contract as detailed mode: the fast-forward stream is deterministic and
// the frozen-core drain is event-schedule-independent, so sampled results
// must be bit-identical across clocking modes.
func TestSampledClockingEquivalence(t *testing.T) {
	w, err := trace.WorkloadByName("pop2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Coaxial4x()
	rc := RunConfig{
		FunctionalWarmupInstr: 50_000,
		WarmupInstr:           2_000,
		MeasureInstr:          30_000,
		Seed:                  1,
		SampleDetailInstr:     5_000,
		SampleFastFwdInstr:    10_000,
	}
	rc.Clocking = EventDriven
	ref, err := Run(cfg, w, rc)
	if err != nil {
		t.Fatalf("event-driven: %v", err)
	}
	rc.Clocking = CycleByCycle
	got, err := Run(cfg, w, rc)
	if err != nil {
		t.Fatalf("cycle-by-cycle: %v", err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("cycle-by-cycle diverges from event-driven\nref: %+v\ngot: %+v", ref, got)
	}
}

// TestSampledWithValidation runs sampled mode under the differential
// validation harness: freezing cores across gaps and recycling requests
// through the arena must not trip any lifecycle, oracle, or occupancy
// invariant.
func TestSampledWithValidation(t *testing.T) {
	w, err := trace.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{
		FunctionalWarmupInstr: 50_000,
		WarmupInstr:           2_000,
		MeasureInstr:          30_000,
		Seed:                  1,
		SampleDetailInstr:     5_000,
		SampleFastFwdInstr:    10_000,
		Validate:              true,
	}
	if _, err := Run(Coaxial4x(), w, rc); err != nil {
		t.Fatalf("sampled run under validation: %v", err)
	}
}
