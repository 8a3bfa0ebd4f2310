package coaxial_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"reflect"
	"strings"
	"testing"

	"coaxial"
)

// The Runner is the primary entry point: configure once with options, run
// many experiments. Runs sharing a warm key (same cache geometry,
// workloads, seed, and functional-warmup budget) reuse one warmed system
// state, and every method stops cleanly on context cancellation.
func ExampleRunner() {
	r := coaxial.NewRunner(
		coaxial.WithSeed(1),
		coaxial.WithWindows(50_000, 5_000, 20_000),
	)
	w, err := coaxial.WorkloadByName("stream-copy")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	base, _ := r.Run(ctx, coaxial.Baseline(), w)
	coax, _ := r.Run(ctx, coaxial.Coaxial4x(), w)
	if coaxial.Speedup(coax, base) > 1 {
		fmt.Println("COAXIAL wins on stream-copy")
	}
	// Output: COAXIAL wins on stream-copy
}

// TestRunnerMatchesLegacyRun pins the API-redesign contract: the Runner
// (warm-cached, context-aware) must produce bit-identical results to the
// original one-shot entry points, on repeated runs too (the second Run hits
// the warm cache).
func TestRunnerMatchesLegacyRun(t *testing.T) {
	w, err := coaxial.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rc := coaxial.DefaultRunConfig()
	rc.FunctionalWarmupInstr = 40_000
	rc.WarmupInstr, rc.MeasureInstr = 2_000, 8_000

	legacy, err := coaxial.Run(coaxial.Coaxial4x(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	r := coaxial.NewRunner(coaxial.WithRunConfig(rc))
	for i := 0; i < 2; i++ {
		got, err := r.Run(context.Background(), coaxial.Coaxial4x(), w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(legacy, got) {
			t.Errorf("run %d: Runner diverges from legacy Run\nlegacy: %+v\nrunner: %+v", i, legacy, got)
		}
	}
}

// TestRunnerSuiteJoinsErrors checks Runner.RunSuite error aggregation: a
// failing job (zero measure window cannot happen per-job, so use a broken
// config) surfaces through errors.Join with the job annotation, while good
// jobs still return results.
func TestRunnerSuiteJoinsErrors(t *testing.T) {
	w, err := coaxial.WorkloadByName("pop2")
	if err != nil {
		t.Fatal(err)
	}
	bad := coaxial.Coaxial4x()
	bad.Channels = 0 // fails validation
	jobs := []coaxial.SuiteJob{
		{Config: coaxial.Coaxial4x(), Workload: w},
		{Config: bad, Workload: w},
	}
	r := coaxial.NewRunner(
		coaxial.WithWindows(10_000, 1_000, 4_000),
		coaxial.WithWorkers(2),
	)
	results, err := r.RunSuite(context.Background(), jobs)
	if err == nil {
		t.Fatal("expected an aggregated error for the broken job")
	}
	if results[0].IPC <= 0 {
		t.Errorf("good job should still produce a result: %+v", results[0])
	}
	if !strings.Contains(err.Error(), "job 1") {
		t.Errorf("error %q does not identify the failing job", err)
	}

	// The same pair in sequence, broken job first, on one Runner: the two
	// configs share a warm key, and the broken one's failure must not
	// reach the valid one through the warm cache.
	seq := coaxial.NewRunner(coaxial.WithWindows(10_000, 1_000, 4_000))
	if _, err := seq.Run(context.Background(), bad, w); err == nil {
		t.Fatal("expected an error for the broken config")
	}
	res, err := seq.Run(context.Background(), coaxial.Coaxial4x(), w)
	if err != nil {
		t.Fatalf("valid config after a broken one on the same Runner: %v", err)
	}
	if res.IPC <= 0 {
		t.Errorf("valid config after a broken one produced no result: %+v", res)
	}
}

// TestRunnerSuiteCancellation checks that a canceled context stops the
// suite: every job reports the cancellation cause through the joined error.
func TestRunnerSuiteCancellation(t *testing.T) {
	w, err := coaxial.WorkloadByName("pop2")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]coaxial.SuiteJob, 4)
	for i := range jobs {
		jobs[i] = coaxial.SuiteJob{Config: coaxial.Coaxial4x(), Workload: w}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := coaxial.NewRunner(coaxial.WithWindows(10_000, 20_000, 20_000))
	_, err = r.RunSuite(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in joined error, got %v", err)
	}
}

// TestRunnerWithValidation runs the differential validation harness through
// the Runner's warm-cached path (cold capture on the first run, warm reuse
// on the second): zero violations on correct code, and bit-identical
// results to an unvalidated Runner.
func TestRunnerWithValidation(t *testing.T) {
	w, err := coaxial.WorkloadByName("stream-copy")
	if err != nil {
		t.Fatal(err)
	}
	windows := func() coaxial.RunnerOption { return coaxial.WithWindows(40_000, 1_000, 6_000) }
	plainRunner := coaxial.NewRunner(windows())
	plain, err := plainRunner.Run(context.Background(), coaxial.Coaxial4x(), w)
	if err != nil {
		t.Fatal(err)
	}
	r := coaxial.NewRunner(windows(), coaxial.WithValidation())
	for i := 0; i < 2; i++ {
		got, err := r.Run(context.Background(), coaxial.Coaxial4x(), w)
		if err != nil {
			t.Fatalf("run %d: validated run failed: %v", i, err)
		}
		if !reflect.DeepEqual(plain, got) {
			t.Errorf("run %d: validation perturbed the result\nplain:   %+v\nchecked: %+v", i, plain, got)
		}
	}
	// The rack workload goes through the same harness.
	if _, err := r.RunMix(context.Background(), coaxial.CoaxialPooled(), coaxial.RackMixWorkloads(0, 12)); err != nil {
		t.Fatalf("validated rack-mix run failed: %v", err)
	}
}

// TestRackMixWorkloads pins the rack generator's contract: a deterministic
// per-core assignment alternating bandwidth-hungry (high-MPKI) and
// latency-sensitive (low-MPKI) jobs.
func TestRackMixWorkloads(t *testing.T) {
	const cores = 12
	wl := coaxial.RackMixWorkloads(3, cores)
	if len(wl) != cores {
		t.Fatalf("got %d workloads, want %d", len(wl), cores)
	}
	for i, w := range wl {
		if i%2 == 0 && w.PaperMPKI < 25 {
			t.Errorf("slot %d: %s MPKI %.1f, want a high-MPKI (>= 25) batch job", i, w.Params.Name, w.PaperMPKI)
		}
		if i%2 == 1 && w.PaperMPKI > 12 {
			t.Errorf("slot %d: %s MPKI %.1f, want a low-MPKI (<= 12) service", i, w.Params.Name, w.PaperMPKI)
		}
	}
	if !reflect.DeepEqual(wl, coaxial.RackMixWorkloads(3, cores)) {
		t.Error("rack mix is not deterministic for a fixed index")
	}
	if reflect.DeepEqual(wl, coaxial.RackMixWorkloads(4, cores)) {
		t.Error("distinct rack indices produced identical assignments")
	}
}
