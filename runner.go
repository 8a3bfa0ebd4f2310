package coaxial

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"coaxial/internal/rack"
	"coaxial/internal/sim"
)

// Runner is the primary entry point for experiments: a reusable driver
// holding the run configuration (seed, windows, clocking, parallelism) set
// once through functional options, plus a cache of warmed system state
// shared across runs. The one-shot Run/RunMix/RunSuite functions remain as
// thin wrappers for existing callers.
//
// Sweeps benefit twice: every Runner method takes a context.Context and
// stops cleanly at cycle-window boundaries on cancellation (returning the
// partial measurements with a wrapping error), and runs that share a warm
// key — same cache geometry, workloads, seed, and functional-warmup budget;
// e.g. the points of a CALM-threshold or link-latency sweep — pay the LLC
// pre-fill and functional warmup once instead of once per point. Warm
// reuse is bit-identical to cold starts by construction.
//
// A Runner is safe for concurrent use.
type Runner struct {
	rc   RunConfig
	warm *warmCache
}

// warmCache is the warm-state memo shared by a Runner and every derived
// Runner (With): entries keyed by sim.WarmKey plus the capture tally
// surfaced through WarmStats.
type warmCache struct {
	mu       sync.Mutex
	entries  map[string]*warmEntry //lint:guardedby mu
	captures int                   //lint:guardedby mu
}

// warmEntry memoizes one CaptureWarm call; the sync.Once collapses
// concurrent suite workers racing for the same key into a single capture.
type warmEntry struct {
	once sync.Once
	ws   *sim.WarmState
	ok   bool
	err  error
}

// RunnerOption configures a Runner at construction.
type RunnerOption func(*Runner)

// WithSeed sets the workload-generation seed.
func WithSeed(seed uint64) RunnerOption {
	return func(r *Runner) { r.rc.Seed = seed }
}

// WithWorkers bounds RunSuite's job-level parallelism (0 = GOMAXPROCS).
func WithWorkers(n int) RunnerOption {
	return func(r *Runner) { r.rc.Workers = n }
}

// WithClocking selects the main-loop time-advance strategy (EventDriven,
// the default, or the bit-identical CycleByCycle reference loop).
func WithClocking(m Clocking) RunnerOption {
	return func(r *Runner) { r.rc.Clocking = m }
}

// WithParallelism does nothing: a host always ticks on its caller's
// goroutine.
//
// Deprecated: drop the option. WithWorkers runs points in parallel and
// WithRackParallelism ticks a rack's hosts in parallel.
func WithParallelism(n int) RunnerOption {
	return func(*Runner) {}
}

// WithWindows sets the simulation windows, per core: the timing-free
// functional cache warmup, the timed (discarded) warmup, and the measured
// instruction budget. A zero functionalWarmup keeps the 1M-instruction
// default; measure must be nonzero.
func WithWindows(functionalWarmup, warmup, measure uint64) RunnerOption {
	return func(r *Runner) {
		r.rc.FunctionalWarmupInstr = functionalWarmup
		r.rc.WarmupInstr = warmup
		r.rc.MeasureInstr = measure
	}
}

// WithValidation enables the differential validation harness for every
// run: an independent DDR5 timing oracle on each sub-channel re-checks
// every DRAM command against JEDEC-style constraints, and a request-
// lifecycle checker verifies issue/complete pairing, timestamp
// monotonicity, latency-breakdown consistency, and MSHR/queue-occupancy
// bounds. A run whose harness observes any violation returns a
// *ValidationError (with the full report) alongside its complete Result.
// The harness is observation-only: measurements are bit-identical with or
// without it. See DESIGN.md "Validation".
func WithValidation() RunnerOption {
	return func(r *Runner) { r.rc.Validate = true }
}

// WithSampling enables sampled simulation: the measure phase alternates
// detailed windows of `detail` per-core instructions with functional
// fast-forward gaps of `fastfwd`, until the full measure budget (detailed
// + fast-forwarded) is accounted. Detailed windows run the normal timing
// model; gaps advance cache and workload state functionally and jump the
// clock by the gap's estimated duration (from each core's IPC calibrated
// over the preceding window) so in-flight work drains and periodic DRAM
// state stays realistic. Headline rates come from the detailed windows
// only. Trades a bounded accuracy loss (see the accuracy-budget test) for
// a large speedup on long windows; zero for either argument disables
// sampling.
func WithSampling(detail, fastfwd uint64) RunnerOption {
	return func(r *Runner) {
		r.rc.SampleDetailInstr = detail
		r.rc.SampleFastFwdInstr = fastfwd
	}
}

// WithRackParallelism sets the rack-level host-phase worker count for
// RunRack: hosts due at a lockstep tick advance on n goroutines between
// the rack's phase barriers. Results are bit-identical for every n
// (TestRackClockingEquivalence); n <= 1 ticks hosts sequentially.
func WithRackParallelism(n int) RunnerOption {
	return func(r *Runner) { r.rc.RackParallelism = n }
}

// WithRunConfig replaces the whole run configuration (escape hatch for
// fields without a dedicated option, e.g. SkipFunctional). Options applied
// after it override individual fields.
func WithRunConfig(rc RunConfig) RunnerOption {
	return func(r *Runner) { r.rc = rc }
}

// WithProgress attaches a per-window progress observer
// (RunConfig.OnProgress): the run loop invokes fn at every cancellation-
// poll boundary and once at each phase end, from the simulation goroutine.
// Observation-only — results are bit-identical with or without it. Long-
// running services derive a per-request Runner with it (see Runner.With)
// to stream partial windows without forking the run path.
func WithProgress(fn func(Progress)) RunnerOption {
	return func(r *Runner) { r.rc.OnProgress = fn }
}

// NewRunner builds a Runner over DefaultRunConfig, modified by opts.
func NewRunner(opts ...RunnerOption) *Runner {
	r := &Runner{rc: DefaultRunConfig(), warm: &warmCache{entries: make(map[string]*warmEntry)}}
	for _, o := range opts {
		o(r)
	}
	return r
}

// With returns a Runner sharing this one's warm-state cache but running
// under a configuration derived by opts — the per-request seam a service
// needs: attach a progress observer or different windows for one job
// without forfeiting warm reuse across jobs. Sharing is always sound
// because warm keys cover every facet a snapshot depends on (geometry,
// seed, functional budget, topology); both Runners remain safe for
// concurrent use.
func (r *Runner) With(opts ...RunnerOption) *Runner {
	nr := &Runner{rc: r.rc, warm: r.warm}
	for _, o := range opts {
		o(nr)
	}
	return nr
}

// Config returns a copy of the effective run configuration.
func (r *Runner) Config() RunConfig { return r.rc }

// WarmStats summarizes the shared warm-state cache (Runner.WarmStats).
type WarmStats struct {
	// Entries is the number of resident warm snapshots.
	Entries int
	// Captures counts CaptureWarm executions since construction: lookups
	// that could not be served by a memoized snapshot. A sweep or service
	// batch that reuses warm state leaves it unchanged.
	Captures int
}

// WarmStats reports the warm-state cache shared by this Runner and every
// Runner derived from it with With.
func (r *Runner) WarmStats() WarmStats {
	r.warm.mu.Lock()
	defer r.warm.mu.Unlock()
	return WarmStats{Entries: len(r.warm.entries), Captures: r.warm.captures}
}

// Run executes one experiment: cfg's system running the same workload on
// every active core (the paper's rate mode).
func (r *Runner) Run(ctx context.Context, cfg Config, w Workload) (Result, error) {
	active := cfg.ActiveCores
	if active == 0 {
		active = cfg.Cores
	}
	wl := make([]Workload, active)
	for i := range wl {
		wl[i] = w
	}
	res, err := r.RunMix(ctx, cfg, wl)
	res.Workload = w.Params.Name
	return res, err
}

// RunMix executes one experiment with per-core workloads (Fig. 6 mixes).
func (r *Runner) RunMix(ctx context.Context, cfg Config, workloads []Workload) (Result, error) {
	// Validate before the warm-cache lookup: the warm key covers only what
	// the warmup depends on, so an invalid config can share a valid one's
	// key, and its capture error would be cached under it.
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if !r.rc.SkipFunctional {
		ws, ok, err := r.warmFor(cfg, workloads)
		if err != nil {
			return Result{}, err
		}
		if ok {
			return sim.RunMixWarm(ctx, cfg, ws, r.rc)
		}
	}
	return sim.RunMixCtx(ctx, cfg, workloads, r.rc)
}

// RunRack executes one rack-scale experiment: cfg's hosts running
// workloads[h] on host h (one per active core), their CXL channels
// contending for cfg's shared pooled devices. Per-host warm states are
// memoized like single-host runs — keys include the topology fingerprint
// (sim.WarmKey), so rack sweeps never alias entries across host counts or
// positions — and rack runs reuse nothing from single-host entries.
// Sampled simulation is incompatible with the lockstep rack and returns
// an error.
func (r *Runner) RunRack(ctx context.Context, cfg RackConfig, workloads [][]Workload) (RackResult, error) {
	// Validates every host config too, before any warm-cache lookup (see
	// RunMix).
	if err := cfg.Validate(); err != nil {
		return RackResult{}, err
	}
	if len(workloads) != len(cfg.Hosts) {
		return RackResult{}, fmt.Errorf("coaxial: %q: %d workload sets for %d hosts", cfg.Name, len(workloads), len(cfg.Hosts))
	}
	if r.rc.SampleDetailInstr > 0 && r.rc.SampleFastFwdInstr > 0 {
		// Let RunFrom return its incompatibility error before any host
		// pays for a functional warmup capture.
		return rack.RunFrom(ctx, cfg, workloads, r.rc, nil)
	}
	var warm []*sim.WarmState
	if !r.rc.SkipFunctional {
		warm = make([]*sim.WarmState, len(cfg.Hosts))
		for h := range cfg.Hosts {
			hrc := rack.HostRunConfig(r.rc, cfg, h)
			hp := sim.HostParams{Index: h, AddrOffset: rack.HostAddrOffset(h)}
			ws, ok, err := r.warmForHost(cfg.Hosts[h], workloads[h], hrc, hp)
			if err != nil {
				return RackResult{}, fmt.Errorf("coaxial: %q host %d warmup: %w", cfg.Name, h, err)
			}
			if !ok {
				// Uncloneable generators: every host cold-starts so the
				// whole rack shares one code path.
				warm = nil
				break
			}
			warm[h] = ws
		}
	}
	return rack.RunFrom(ctx, cfg, workloads, r.rc, warm)
}

// warmFor returns the memoized warm state for this run's warm key,
// capturing it on first use. ok is false when the generators cannot be
// cloned (the caller then runs cold).
func (r *Runner) warmFor(cfg Config, workloads []Workload) (*sim.WarmState, bool, error) {
	return r.warmForHost(cfg, workloads, r.rc, sim.HostParams{})
}

// warmForHost is warmFor for a host embedded in a topology: hrc carries
// the host's derived seed and topology fingerprint (which key the cache),
// hp its placement. The sync.Once collapses concurrent workers racing for
// one key into a single capture.
func (r *Runner) warmForHost(cfg Config, workloads []Workload, hrc RunConfig, hp sim.HostParams) (*sim.WarmState, bool, error) {
	key := sim.WarmKey(cfg, workloads, hrc)
	c := r.warm
	c.mu.Lock()
	e, hit := c.entries[key]
	if !hit {
		e = &warmEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.ws, e.ok, e.err = sim.CaptureWarmHost(cfg, workloads, hrc, hp)
		c.mu.Lock()
		c.captures++
		c.mu.Unlock()
	})
	return e.ws, e.ok, e.err
}

// RunSuite executes jobs across the configured worker count, preserving
// order. All failures are aggregated into the returned error with
// errors.Join, each annotated with its job; results[i] is valid iff job i
// did not contribute an error. Cancellation stops scheduling further jobs
// and interrupts the running ones at their next cycle-window boundary.
func (r *Runner) RunSuite(ctx context.Context, jobs []SuiteJob) ([]Result, error) {
	results, errs := r.runSuite(ctx, jobs)
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("job %d (%s): %w", i, jobs[i].label(), err)
		}
	}
	return results, errors.Join(errs...)
}

// label names a job for error annotation.
func (j SuiteJob) label() string {
	if j.Rack != nil {
		return fmt.Sprintf("rack %s/%d hosts", j.Rack.Name, len(j.Rack.Hosts))
	}
	return j.Config.Name + "/" + j.Workload.Params.Name
}

// runJob dispatches one suite job down the single-system or rack path.
func (r *Runner) runJob(ctx context.Context, j SuiteJob) (Result, error) {
	if j.Rack != nil {
		rr, err := r.RunRack(ctx, *j.Rack, j.HostWorkloads)
		return rr.Summary(), err
	}
	return r.Run(ctx, j.Config, j.Workload)
}

// runSuite is the shared fan-out under both suite entry points.
func (r *Runner) runSuite(ctx context.Context, jobs []SuiteJob) ([]Result, []error) {
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	workers := r.rc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				results[i], errs[i] = r.runJob(ctx, jobs[i])
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case ch <- i:
		case <-ctx.Done():
			// Unscheduled jobs report the cancellation; running ones
			// stop at their next cycle-window boundary on their own.
			for j := i; j < len(jobs); j++ {
				if errs[j] == nil {
					errs[j] = ctx.Err()
				}
			}
			break dispatch
		}
	}
	close(ch)
	wg.Wait()
	return results, errs
}
