package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"coaxial/internal/memreq"
	"coaxial/internal/trace"
)

// saveOracleReport writes a failed run's validation report to
// $ORACLE_REPORT_DIR (when set) so CI can upload it as an artifact.
func saveOracleReport(t *testing.T, err error) {
	t.Helper()
	dir := os.Getenv("ORACLE_REPORT_DIR")
	var ve *ValidationError
	if dir == "" || !errors.As(err, &ve) {
		return
	}
	if mkErr := os.MkdirAll(dir, 0o755); mkErr != nil {
		t.Logf("cannot create report dir: %v", mkErr)
		return
	}
	name := strings.NewReplacer("/", "_", " ", "_").Replace(t.Name()) + ".txt"
	if wrErr := os.WriteFile(filepath.Join(dir, name), []byte(ve.Report), 0o644); wrErr != nil {
		t.Logf("cannot write report: %v", wrErr)
	}
}

// TestValidationSuite is the harness's acceptance matrix: the DDR timing
// oracle and the lifecycle checker must report zero violations across the
// default configuration suite (direct DDR, COAXIAL-4x, CXL-pooled) under
// both clocking modes, on a paper workload mix and the mixed-MPKI rack
// workload, plus very short windows over another mix, whose ends land
// mid-burst: a core a completion wakes at the final cycle must not
// dispatch there (Core.Sync), or its L2 miss holds an MSHR no in-flight
// read matches. The parN leg runs N Systems of the point concurrently —
// the parallelism a host gets, across points (RunSuite workers, the
// daemon) — and requires identical results; under -race it shows that
// Systems share no state.
func TestValidationSuite(t *testing.T) {
	configs := []Config{Baseline(), Coaxial4x(), CoaxialPooled()}
	loads := []struct {
		name                   string
		wl                     func(cores int) []trace.Workload
		functional, warm, meas uint64
		seed                   uint64
	}{
		{"mix1", func(c int) []trace.Workload { return trace.Mix(1, c) }, 40_000, 1_000, 6_000, 1},
		{"rack0", func(c int) []trace.Workload { return trace.RackMix(0, c) }, 40_000, 1_000, 6_000, 1},
		{"mix3-short-seed1", func(c int) []trace.Workload { return trace.Mix(3, c) }, 2_000, 200, 1_000, 1},
		{"mix3-short-seed7", func(c int) []trace.Workload { return trace.Mix(3, c) }, 2_000, 200, 1_000, 7},
	}
	modes := []struct {
		name string
		m    Clocking
	}{{"event", EventDriven}, {"cycle", CycleByCycle}}

	for _, cfg := range configs {
		for _, ld := range loads {
			wl := ld.wl(cfg.Cores)
			for _, mode := range modes {
				for _, par := range []int{1, 3} {
					t.Run(fmt.Sprintf("%s/%s/%s/par%d", cfg.Name, ld.name, mode.name, par), func(t *testing.T) {
						rc := RunConfig{
							FunctionalWarmupInstr: ld.functional,
							WarmupInstr:           ld.warm,
							MeasureInstr:          ld.meas,
							Seed:                  ld.seed,
							Clocking:              mode.m,
							Validate:              true,
						}
						res := make([]Result, par)
						errs := make([]error, par)
						var wg sync.WaitGroup
						for k := range res {
							wg.Add(1)
							go func() {
								defer wg.Done()
								res[k], errs[k] = RunMix(cfg, wl, rc)
							}()
						}
						wg.Wait()
						for k, err := range errs {
							if err != nil {
								saveOracleReport(t, err)
								t.Fatalf("validated run %d failed: %v", k, err)
							}
						}
						if res[0].Retired == 0 {
							t.Error("validated run retired no instructions")
						}
						for k := 1; k < par; k++ {
							if !reflect.DeepEqual(res[0], res[k]) {
								t.Errorf("concurrent run %d diverges from run 0\nrun 0: %+v\nrun %d: %+v", k, res[0], k, res[k])
							}
						}
					})
				}
			}
		}
	}
}

// TestValidationSameBankRefresh runs the oracle against the DDR5 REFsb
// refresh path inside a full system, which the matrix above (all-bank REF)
// does not reach.
func TestValidationSameBankRefresh(t *testing.T) {
	cfg := Baseline()
	cfg.Name = "ddr-baseline-refsb"
	cfg.DDR.SameBankRefresh = true
	rc := RunConfig{
		FunctionalWarmupInstr: 40_000,
		WarmupInstr:           1_000,
		MeasureInstr:          8_000,
		Seed:                  2,
		Validate:              true,
	}
	if _, err := RunMix(cfg, trace.Mix(2, cfg.Cores), rc); err != nil {
		saveOracleReport(t, err)
		t.Fatalf("validated REFsb run failed: %v", err)
	}
}

// TestValidationObservationOnly pins the harness's central contract: a
// validated run is bit-identical to the same run without validation.
func TestValidationObservationOnly(t *testing.T) {
	for _, cfg := range []Config{Baseline(), CoaxialPooled()} {
		t.Run(cfg.Name, func(t *testing.T) {
			wl := trace.RackMix(1, cfg.Cores)
			rc := RunConfig{
				FunctionalWarmupInstr: 40_000,
				WarmupInstr:           1_000,
				MeasureInstr:          6_000,
				Seed:                  1,
			}
			plain, err := RunMix(cfg, wl, rc)
			if err != nil {
				t.Fatal(err)
			}
			rc.Validate = true
			checked, err := RunMix(cfg, wl, rc)
			if err != nil {
				saveOracleReport(t, err)
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, checked) {
				t.Errorf("validation perturbed the measurement\nplain:   %+v\nchecked: %+v", plain, checked)
			}
		})
	}
}

// TestValidationErrorSurfaces checks the plumbing from a detected violation
// to the caller: inject a lifecycle failure directly into an enabled
// system's harness and confirm the run reports it (with the Result still
// produced), rather than silently succeeding.
func TestValidationErrorSurfaces(t *testing.T) {
	w, err := trace.WorkloadByName("pop2")
	if err != nil {
		t.Fatal(err)
	}
	wl := make([]trace.Workload, 2)
	for i := range wl {
		wl[i] = w
	}
	cfg := Baseline().WithActiveCores(2)
	sys, err := NewSystem(cfg, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys.enableValidation()
	sys.val.lc.Failf("synthetic invariant failure for plumbing test")
	verr := sys.validationError()
	if verr == nil {
		t.Fatal("injected failure did not surface")
	}
	var ve *ValidationError
	if !errors.As(verr, &ve) {
		t.Fatalf("error type = %T, want *ValidationError", verr)
	}
	if ve.Count == 0 || !strings.Contains(ve.Report, "synthetic invariant failure") {
		t.Errorf("report missing the injected failure: %+v", ve)
	}
}

// plantedSystem builds a validated system under load and advances it until
// the memory system holds in-flight requests.
func plantedSystem(t *testing.T) *System {
	t.Helper()
	w, err := trace.WorkloadByName("pop2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Coaxial4x()
	wl := make([]trace.Workload, cfg.Cores)
	for i := range wl {
		wl[i] = w
	}
	sys, err := NewSystem(cfg, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys.enableValidation()
	for i := 0; i < 50; i++ {
		sys.BenchSteps(2_000)
		pending := 0
		sys.forEachPending(func(*memreq.Request) { pending++ })
		if pending > 0 {
			return sys
		}
	}
	t.Fatal("no in-flight requests after 100k cycles")
	return nil
}

// TestValidationCatchesPlantedArenaFaults plants the arena-misuse bugs the
// harness exists to catch and confirms each surfaces as a validation
// failure: an escaped handle (a request released while a memory-system
// queue still holds its pointer), a double free, and a lost write (issued,
// never sent, so it never completes).
func TestValidationCatchesPlantedArenaFaults(t *testing.T) {
	t.Run("escaped-handle", func(t *testing.T) {
		sys := plantedSystem(t)
		// Plant: free a request out from under the queue that owns it.
		var victim *memreq.Request
		sys.forEachPending(func(r *memreq.Request) {
			if victim == nil {
				victim = r
			}
		})
		sys.arena.Release(victim)
		verr := sys.validationError()
		var ve *ValidationError
		if !errors.As(verr, &ve) || !strings.Contains(ve.Report, "escaped handle") {
			t.Fatalf("planted escaped handle not reported; err = %v", verr)
		}
	})
	t.Run("double-free", func(t *testing.T) {
		sys := plantedSystem(t)
		var victim *memreq.Request
		sys.forEachPending(func(r *memreq.Request) {
			if victim == nil {
				victim = r
			}
		})
		sys.arena.Release(victim)
		sys.arena.Release(victim) // plant: second free of the same request
		verr := sys.validationError()
		var ve *ValidationError
		if !errors.As(verr, &ve) || !strings.Contains(ve.Report, "double release") {
			t.Fatalf("planted double free not reported; err = %v", verr)
		}
	})
	t.Run("lost-write", func(t *testing.T) {
		sys := plantedSystem(t)
		// Plant: a write-back that enters tracking but is never sent.
		w := sys.arena.Alloc()
		w.Addr, w.Kind, w.Core, w.Issue = 0x40, memreq.Write, -1, sys.now
		w.Ret = sys
		sys.val.lc.OnIssue(w, sys.now)
		verr := sys.validationError()
		var ve *ValidationError
		if !errors.As(verr, &ve) {
			t.Fatalf("planted lost write not reported; err = %v", verr)
		}
		for _, want := range []string{"write 0x40 leaked", "arena holds"} {
			if !strings.Contains(ve.Report, want) {
				t.Errorf("report lacks %q:\n%s", want, ve.Report)
			}
		}
	})
}
