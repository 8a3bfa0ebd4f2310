package sim

import (
	"context"
	"fmt"

	"coaxial/internal/calm"
	"coaxial/internal/clock"
	"coaxial/internal/dram"
	"coaxial/internal/stats"
	"coaxial/internal/trace"
)

// RunConfig controls an experiment's simulation windows.
type RunConfig struct {
	// FunctionalWarmupInstr is the per-core timing-free warmup budget that
	// brings cache contents to steady state (so LLC fills and dirty
	// write-back traffic are representative). Zero uses the default of
	// 1M instructions; set to a negative-like sentinel via SkipFunctional
	// to disable.
	FunctionalWarmupInstr uint64
	// SkipFunctional disables functional warmup entirely.
	SkipFunctional bool
	// WarmupInstr is the per-core timed warmup budget (queues, predictors
	// and DRAM state settle; statistics are discarded).
	WarmupInstr uint64
	// MeasureInstr is the per-core measured instruction budget.
	MeasureInstr uint64
	// Seed determinizes workload generation.
	Seed uint64
	// MaxCyclesPerInstr bounds runaway simulations (cycles budget =
	// MaxCyclesPerInstr * instructions, per phase; see MaxCycles). Default
	// 400.
	MaxCyclesPerInstr int64
	// Clocking selects the main-loop time-advance strategy; the zero value
	// is EventDriven. CycleByCycle is the bit-identical reference loop
	// (see TestClockingEquivalence), useful for debugging the event path.
	Clocking Clocking
	// Workers bounds RunSuite's parallelism; 0 means GOMAXPROCS.
	Workers int
	// SampleDetailInstr and SampleFastFwdInstr enable sampled simulation
	// when both are positive: the measure phase alternates detailed windows
	// of SampleDetailInstr per-core instructions with functional
	// fast-forward gaps of SampleFastFwdInstr, until MeasureInstr
	// instructions (detailed + fast-forwarded) are accounted. Headline
	// rates are computed over the detailed windows only. Sampled results
	// approximate the detailed run (see the accuracy-budget test in
	// sampling_test.go); the warmup phases are unaffected.
	SampleDetailInstr  uint64
	SampleFastFwdInstr uint64
	// Validate attaches the differential validation harness: an
	// independent DDR5 timing oracle on every sub-channel plus the
	// request-lifecycle invariant checker. A run whose harness observes
	// any violation returns a *ValidationError alongside its (complete)
	// Result. Observation-only: measurements are bit-identical with or
	// without it.
	Validate bool
	// Topology fingerprints the multi-host topology the run is embedded in
	// ("" for a standalone single-host run). It contributes to WarmKey so
	// rack sweeps never alias warm-state cache entries across host counts
	// or host positions; rack drivers set it per host (see rack.HostRunConfig).
	Topology string
	// RackParallelism is the rack-level host-shard worker count: hosts
	// tick on this many goroutines between rack phases. Results are
	// bit-identical for every value; <= 1 ticks hosts sequentially. Unused
	// by single-host runs: a host always ticks on one goroutine.
	RackParallelism int
	// OnProgress, when non-nil, observes phase progress at the
	// cancellation-poll boundaries of the run loop (every ctxCheckCycles
	// simulated cycles) and once at each phase end; rack runs report
	// rack-level progress through the same hook. Observation-only: the
	// callback must not mutate simulator state, and measurements are
	// bit-identical with or without it. It is invoked synchronously from
	// the simulation goroutine, so it should return quickly. Excluded from
	// warm keys and configuration fingerprints (see serve.flightKey).
	OnProgress func(Progress)
}

// Progress is one phase-progress observation delivered to
// RunConfig.OnProgress: how far the slowest core has retired toward the
// phase target, and how many cycles the phase has consumed so far. A
// partial window returned on cancellation corresponds to the last
// observation delivered.
type Progress struct {
	// Phase is "warmup" or "measure".
	Phase string
	// Cycles is the simulated cycles spent in the phase so far.
	Cycles int64
	// Retired is the slowest core's instructions retired toward Target
	// (capped at Target; cores that finish early keep running but no
	// longer advance it).
	Retired uint64
	// Target is the per-core retirement target of the phase.
	Target uint64
}

// DefaultRunConfig returns the standard experiment windows. The paper
// simulates 200M instructions per core after 50M of warmup; our synthetic
// workloads are stationary by construction, so far shorter windows are
// representative (see DESIGN.md §4).
func DefaultRunConfig() RunConfig {
	return RunConfig{WarmupInstr: 40_000, MeasureInstr: 150_000, Seed: 1}
}

// Result aggregates one experiment's measurements.
type Result struct {
	Config   string
	Workload string

	// Cycles is the measured window length (to the last core's finish).
	Cycles int64
	// PerCoreIPC is each active core's measured IPC.
	PerCoreIPC []float64
	// IPC is the mean per-core IPC; CPI its inverse.
	IPC float64
	CPI float64

	// L2-miss latency breakdown, average nanoseconds per L2 miss
	// (Fig. 2b / Fig. 5 middle).
	OnChipNS  float64
	QueueNS   float64
	ServiceNS float64
	CXLNS     float64
	TotalNS   float64

	// Latency distribution of L2 misses (ns).
	P50NS, P90NS, P99NS float64

	// Memory traffic over the measured window.
	ReadGBs     float64
	WriteGBs    float64
	PeakGBs     float64
	Utilization float64

	// LLC behaviour.
	LLCMPKI      float64
	LLCMissRatio float64

	// CALM decision tallies (Fig. 7b).
	CALM calm.Decisions
	// FPDiscarded counts discarded CALM false-positive responses.
	FPDiscarded uint64

	// DRAM raw activity (power model input).
	DRAM dram.Counters

	// Retired is the total instructions retired in the window (including
	// overshoot by cores that finished early and kept running).
	Retired uint64
}

// Run executes one experiment: cfg's system running the same workload on
// every active core (the paper's rate mode).
func Run(cfg Config, w trace.Workload, rc RunConfig) (Result, error) {
	return RunCtx(context.Background(), cfg, w, rc)
}

// RunCtx is Run with cancellation; see RunMixCtx for its semantics.
func RunCtx(ctx context.Context, cfg Config, w trace.Workload, rc RunConfig) (Result, error) {
	wl := make([]trace.Workload, cfg.active())
	for i := range wl {
		wl[i] = w
	}
	res, err := RunMixCtx(ctx, cfg, wl, rc)
	res.Workload = w.Params.Name
	return res, err
}

// RunMix executes one experiment with per-core workloads (Fig. 6 mixes).
func RunMix(cfg Config, workloads []trace.Workload, rc RunConfig) (Result, error) {
	return RunMixCtx(context.Background(), cfg, workloads, rc)
}

// RunMixCtx is RunMix with cancellation: the simulation polls ctx at cycle
// window boundaries and stops cleanly when it is done. A canceled run
// returns the measurements collected so far (a partial window) together
// with an error wrapping the ctx cause; callers must treat the Result as
// incomplete whenever err != nil.
func RunMixCtx(ctx context.Context, cfg Config, workloads []trace.Workload, rc RunConfig) (Result, error) {
	gens, hints, err := synthetic(cfg, workloads, rc.Seed, HostParams{})
	if err != nil {
		return Result{}, err
	}
	return runGens(ctx, cfg, gens, hints, rc, mixLabel(workloads))
}

// RunGenerators executes one experiment over caller-provided generators
// (e.g. trace replays). hints may be nil (no LLC pre-fill; the trace
// should carry its own warmup).
func RunGenerators(cfg Config, gens []trace.Generator, hints []trace.Params, rc RunConfig) (Result, error) {
	return runGens(context.Background(), cfg, gens, hints, rc, traceMixLabel(gens))
}

// runGens is the one cold-start run path under RunMixCtx and
// RunGenerators: build the system over gens, apply rc, run the untimed
// warmup, then the timed windows. label names the result's workload.
func runGens(ctx context.Context, cfg Config, gens []trace.Generator, hints []trace.Params, rc RunConfig, label string) (Result, error) {
	if err := rc.CheckWindows(); err != nil {
		return Result{}, err
	}
	sys, err := newSystemGens(cfg, gens, hints, HostParams{})
	if err != nil {
		return Result{}, err
	}
	sys.Configure(rc)
	sys.Prewarm(rc)
	return sys.timedPhases(ctx, label, rc)
}

// functionalInstr resolves the functional-warmup budget.
func (rc RunConfig) functionalInstr() uint64 {
	if rc.FunctionalWarmupInstr == 0 {
		return 1_000_000
	}
	return rc.FunctionalWarmupInstr
}

// timedPhases runs the timed warmup and measure windows on an
// already-warmed system (RunWindows) and collects the result; label names
// its workload.
func (s *System) timedPhases(ctx context.Context, label string, rc RunConfig) (Result, error) {
	var res Result
	err := RunWindows(ctx, s, "sim: "+s.cfg.Name, rc, func() { res = s.collect(label) })
	return res, err
}

// collect snapshots measurements after the measure phase; label names the
// workload.
func (s *System) collect(label string) Result {
	s.syncClock()
	res := Result{
		Config:      s.cfg.Name,
		Workload:    label,
		PeakGBs:     s.peakGBs(),
		CALM:        s.policy.Decisions(),
		FPDiscarded: s.fpDiscarded,
	}

	var retired uint64
	for _, c := range s.cores {
		if s.sampled {
			res.PerCoreIPC = append(res.PerCoreIPC, s.sampledIPC(c))
		} else {
			res.PerCoreIPC = append(res.PerCoreIPC, c.IPC(s.now))
		}
		retired += c.Stats().Retired
	}
	res.Retired = retired
	res.IPC = stats.Mean(res.PerCoreIPC)
	if res.IPC > 0 {
		res.CPI = 1 / res.IPC
	}

	// Window: from the stats reset to now. The cores recorded their own
	// finish cycles; traffic counters ran to s.now. In sampled mode the
	// window is the union of the detailed windows — fast-forward jumps are
	// architecturally inert and must not dilute the rates.
	window := s.windowCycles()
	if s.sampled {
		window = s.detailCycles
	}
	res.Cycles = window

	o, q, sv, cx := s.breakdown.Means()
	res.OnChipNS = clock.NS(int64(o + 0.5))
	res.QueueNS = clock.NS(int64(q + 0.5))
	res.ServiceNS = clock.NS(int64(sv + 0.5))
	res.CXLNS = clock.NS(int64(cx + 0.5))
	res.TotalNS = res.OnChipNS + res.QueueNS + res.ServiceNS + res.CXLNS
	res.P50NS = clock.NS(s.hist.Percentile(50))
	res.P90NS = clock.NS(s.hist.Percentile(90))
	res.P99NS = clock.NS(s.hist.Percentile(99))

	var dc dram.Counters
	for _, b := range s.backends {
		dc.Accumulate(b.Counters())
	}
	res.DRAM = dc
	res.ReadGBs = stats.GBs(dc.ReadBytes, window)
	res.WriteGBs = stats.GBs(dc.WriteBytes, window)
	res.Utilization = stats.Utilization(res.ReadGBs+res.WriteGBs, res.PeakGBs)

	lst := s.llc.Stats()
	// Discount the functional fast-forward stream's LLC traffic: those
	// accesses advanced cache state but were never timed.
	lst.Accesses -= s.ffAccesses
	lst.Misses -= s.ffMisses
	if retired > 0 {
		res.LLCMPKI = float64(lst.Misses) / (float64(retired) / 1000)
	}
	if lst.Accesses > 0 {
		res.LLCMissRatio = float64(lst.Misses) / float64(lst.Accesses)
	}
	return res
}

// windowCycles returns the measured window length.
func (s *System) windowCycles() int64 {
	var start int64
	if len(s.cores) > 0 {
		// All cores were reset at the same cycle.
		start = s.cores[0].MeasureStart()
	}
	return s.now - start
}

// mixLabel names a workload assignment.
func mixLabel(workloads []trace.Workload) string {
	if len(workloads) == 0 {
		return ""
	}
	first := workloads[0].Params.Name
	for _, w := range workloads[1:] {
		if w.Params.Name != first {
			return fmt.Sprintf("mix[%s,...x%d]", first, len(workloads))
		}
	}
	return first
}

// traceMixLabel names a generator assignment, as mixLabel does workloads.
func traceMixLabel(gens []trace.Generator) string {
	if len(gens) == 0 {
		return ""
	}
	first := gens[0].Name()
	for _, g := range gens[1:] {
		if g.Name() != first {
			return fmt.Sprintf("trace-mix[%s,...x%d]", first, len(gens))
		}
	}
	return first
}
