package sim

import (
	"context"
	"fmt"

	"coaxial/internal/trace"
)

// WarmState is a snapshot of the untimed warmup product for one
// (cache geometry, workload set, seed) point: the cache contents after LLC
// pre-fill plus functional warmup, and every generator parked at its
// post-warmup stream position. One capture can seed any number of timed
// runs — each bit-identical to a cold run of the same configuration —
// which turns the warmup from a per-sweep-point cost into a one-time cost
// when sweep points share their warm key (WarmKey).
//
// The snapshot is immutable after capture: RunMixWarm clones the caches
// and generators per use.
type WarmState struct {
	workloads []trace.Workload
	hints     []trace.Params
	gens      []trace.Generator
	caches    hierarchy
	seed      uint64
	fw        uint64
	geom      string
	// host fingerprints the HostParams the warmup ran under: the address
	// offset shifts every generated address, so a snapshot is only valid
	// for the identical host position.
	host string
}

// Workloads returns the workload assignment the snapshot was captured for.
func (ws *WarmState) Workloads() []trace.Workload { return ws.workloads }

// warmGeometry fingerprints the configuration facets the untimed warmup
// depends on: core/cache shape only. Timing, backend, and CALM parameters
// are irrelevant to warmup (it is timing-free and touches caches and
// generators only), so e.g. a CALM-threshold sweep shares one warm state.
func warmGeometry(cfg Config) string {
	return fmt.Sprintf("c%d/%d|l1:%+v|l2:%+v|llc:%d/%d/%d",
		cfg.Cores, cfg.active(), cfg.L1, cfg.L2,
		cfg.LLCSliceBytes, cfg.LLCAssoc, cfg.LLCLatency)
}

// hostFingerprint identifies the HostParams facets the untimed warmup
// depends on: the address offset (it shifts every generated and prefilled
// address). Injected backends are irrelevant — warmup is timing-free and
// never touches them — and the host index only tags requests.
func hostFingerprint(hp HostParams) string {
	if hp.AddrOffset == 0 {
		return ""
	}
	return fmt.Sprintf("off:%#x", hp.AddrOffset)
}

// WarmKey identifies the warm state a (cfg, workloads, rc) run would
// consume: two runs with equal keys can share one CaptureWarm snapshot.
// rc.Topology participates so runs embedded in different multi-host
// topologies (different host counts, or different positions within one
// rack) never alias each other's cache entries.
func WarmKey(cfg Config, workloads []trace.Workload, rc RunConfig) string {
	key := fmt.Sprintf("%s|seed:%d|fw:%d", warmGeometry(cfg), rc.Seed, rc.functionalInstr())
	if rc.Topology != "" {
		key += "|topo:" + rc.Topology
	}
	for _, w := range workloads {
		key += fmt.Sprintf("|%+v", w.Params)
	}
	return key
}

// CaptureWarm builds cfg's system and runs the untimed warmup (LLC
// pre-fill plus functional warmup) once, returning the snapshot. ok is
// false — with no error — when the workloads' generators do not support
// cloning, in which case callers fall back to cold-start runs.
func CaptureWarm(cfg Config, workloads []trace.Workload, rc RunConfig) (ws *WarmState, ok bool, err error) {
	return CaptureWarmHost(cfg, workloads, rc, HostParams{})
}

// CaptureWarmHost is CaptureWarm for a host embedded in a multi-host
// topology: the snapshot is captured at hp's address offset and is only
// reusable at the same offset. The capture system is built with private
// backends even when the live host will use injected ones — the untimed
// warmup never touches a backend, and building throwaway ports would
// corrupt shared-device attach order.
func CaptureWarmHost(cfg Config, workloads []trace.Workload, rc RunConfig, hp HostParams) (ws *WarmState, ok bool, err error) {
	if rc.SkipFunctional {
		return nil, false, fmt.Errorf("sim: warm capture with SkipFunctional set")
	}
	hp.Backends = nil
	sys, err := NewHostSystem(cfg, workloads, rc.Seed, hp)
	if err != nil {
		return nil, false, err
	}
	for _, c := range sys.cores {
		if _, ok := c.Gen().(trace.Cloner); !ok {
			return nil, false, nil
		}
	}
	sys.Prewarm(rc)

	ws = &WarmState{
		workloads: append([]trace.Workload(nil), workloads...),
		hints:     sys.prefillHints,
		gens:      make([]trace.Generator, len(sys.cores)),
		caches:    sys.hierarchy,
		seed:      rc.Seed,
		fw:        rc.functionalInstr(),
		geom:      warmGeometry(cfg),
		host:      hostFingerprint(hp),
	}
	// The system is discarded, so its caches transfer to the snapshot
	// as-is; only the generators need detaching from the cores.
	for i, c := range sys.cores {
		ws.gens[i] = c.Gen()
	}
	return ws, true, nil
}

// RunMixWarm runs the timed phases of RunMixCtx from a warm snapshot,
// skipping the untimed warmup. The result is bit-identical to
// RunMixCtx(ctx, cfg, ws workloads, rc) (TestWarmStateBitIdentical); rc's
// seed and functional-warmup budget must match the capture, and cfg's
// core/cache geometry must match the capture configuration.
func RunMixWarm(ctx context.Context, cfg Config, ws *WarmState, rc RunConfig) (Result, error) {
	if err := rc.CheckWindows(); err != nil {
		return Result{}, err
	}
	sys, err := NewWarmSystem(cfg, ws, rc, HostParams{})
	if err != nil {
		return Result{}, err
	}
	return sys.timedPhases(ctx, mixLabel(ws.workloads), rc)
}

// NewWarmSystem rebuilds a ready-to-measure System from a warm snapshot:
// generators cloned at their post-warmup positions, caches cloned from the
// capture, clocking and validation applied per rc. hp injects the host's
// topology placement — its address offset must match the capture
// (hostFingerprint), and hp.Backends wires shared pooled-device ports. The
// caller drives the timed phases itself; RunMixWarm is the single-host
// convenience wrapper.
func NewWarmSystem(cfg Config, ws *WarmState, rc RunConfig, hp HostParams) (*System, error) {
	if rc.SkipFunctional {
		return nil, fmt.Errorf("sim: warm run with SkipFunctional set")
	}
	if g := warmGeometry(cfg); g != ws.geom {
		return nil, fmt.Errorf("sim: warm state geometry mismatch: captured %q, running %q", ws.geom, g)
	}
	if rc.Seed != ws.seed || rc.functionalInstr() != ws.fw {
		return nil, fmt.Errorf("sim: warm state seed/warmup mismatch")
	}
	if h := hostFingerprint(hp); h != ws.host {
		return nil, fmt.Errorf("sim: warm state host mismatch: captured %q, running %q", ws.host, h)
	}
	gens := make([]trace.Generator, len(ws.gens))
	for i, g := range ws.gens {
		gens[i] = g.(trace.Cloner).Clone()
	}
	caches := ws.caches.clone()
	sys, err := newSystemGens(cfg, gens, ws.hints, hp, &caches)
	if err != nil {
		return nil, err
	}
	sys.Configure(rc)
	return sys, nil
}
