package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"coaxial/internal/trace"
)

// TestWarmStateBitIdentical pins the warm-state contract: a timed run
// seeded from a CaptureWarm snapshot must be bit-identical to the cold run
// that does its own untimed warmup, and the snapshot must be reusable (two
// consecutive warm runs agree, proving the snapshot is not mutated).
func TestWarmStateBitIdentical(t *testing.T) {
	workloads := trace.Mix(2, 12)
	rc := RunConfig{
		FunctionalWarmupInstr: 60_000,
		WarmupInstr:           2_000,
		MeasureInstr:          8_000,
		Seed:                  3,
	}
	for _, cfg := range []Config{Baseline(), Coaxial4x()} {
		t.Run(cfg.Name, func(t *testing.T) {
			cold, err := RunMix(cfg, workloads, rc)
			if err != nil {
				t.Fatal(err)
			}
			ws, ok, err := CaptureWarm(cfg, workloads, rc)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("synthetic generators should be cloneable")
			}
			for i := 0; i < 2; i++ {
				warm, err := RunMixWarm(context.Background(), cfg, ws, rc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cold, warm) {
					t.Errorf("warm run %d diverges from cold start\ncold: %+v\nwarm: %+v", i, cold, warm)
				}
			}
		})
	}
}

// TestWarmStateMismatch checks the guards against consuming a snapshot
// with an incompatible configuration.
func TestWarmStateMismatch(t *testing.T) {
	workloads := trace.Mix(0, 12)
	rc := RunConfig{FunctionalWarmupInstr: 10_000, MeasureInstr: 2_000, Seed: 1}
	ws, ok, err := CaptureWarm(Coaxial4x(), workloads, rc)
	if err != nil || !ok {
		t.Fatalf("capture: ok=%v err=%v", ok, err)
	}
	if _, err := RunMixWarm(context.Background(), Baseline(), ws, rc); err == nil {
		t.Error("expected geometry mismatch error (Baseline has a different LLC)")
	}
	rc2 := rc
	rc2.Seed = 9
	if _, err := RunMixWarm(context.Background(), Coaxial4x(), ws, rc2); err == nil {
		t.Error("expected seed mismatch error")
	}
}

// TestRunCancellation checks cooperative cancellation: a canceled context
// stops the run at a cycle-window boundary with a partial Result and an
// error wrapping the cause.
func TestRunCancellation(t *testing.T) {
	w, err := trace.WorkloadByName("pop2")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // stop at the first window boundary
	rc := RunConfig{
		FunctionalWarmupInstr: 10_000,
		WarmupInstr:           50_000,
		MeasureInstr:          50_000,
		Seed:                  1,
	}
	res, err := RunCtx(ctx, Coaxial4x(), w, rc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Config != "coaxial-4x" {
		t.Errorf("partial result not populated: %+v", res)
	}
}
