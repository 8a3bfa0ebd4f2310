// Package rack composes N single-host sim.Systems into one rack-scale
// topology: every host keeps its private cores, caches, and NoC, while its
// CXL channels become ports into shared pooled type-3 devices
// (cxl.PooledDevice) whose queues are the cross-host coupling point —
// arbitration, per-host fairness accounting, and head-of-line contention
// all happen there.
//
// The rack advances all hosts in lockstep with a phased tick. One rack
// step to cycle `next`:
//
//	next    = min over hosts of NextEventBound(limit),
//	          min over devices of NextEvent(now)      (event clocking)
//	next    = now + 1                                 (cycle clocking)
//	phase H — every host TickCycle(next); sequential, host order
//	          (host-private state only: a port's ingress/response
//	          heaps are host-side)
//	phase D — every pooled device TickDevice(next); sequential, fixed
//	          device order, each device serving its ports in fixed
//	          attach order (= host order); a committed write goes to its
//	          own host's Complete, which releases it
//	phase E — per host, in host order: re-arm the host's cached backend
//	          bounds with the port's fresh NextEvent (phase D only adds
//	          events, so clamping down is sufficient)
//
// Phases touch disjoint state, so results are bit-identical across
// clocking, and a 1-host rack reproduces the equivalent single-System run
// exactly (TestRackClockingEquivalence).
package rack

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"coaxial/internal/clock"
	"coaxial/internal/cxl"
	"coaxial/internal/dram"
	"coaxial/internal/sim"
	"coaxial/internal/stats"
	"coaxial/internal/trace"
	"coaxial/internal/validate"
)

// Config describes one rack: per-host system configurations plus the
// shared pooled devices their CXL channels attach to. Host channel ch
// wires to Pooled[ch % len(Pooled)]; with Pooled empty, hosts keep their
// private backends and merely run in lockstep (no cross-host coupling).
type Config struct {
	// Name labels the rack in results ("coaxial-pooled@4h", ...).
	Name string
	// Hosts configures each host system, in host-index order. With pooled
	// devices, every host must be CXLAttached: its cfg.CXL.Link and
	// IngressDepth parameterize the ports; its per-channel device config
	// (cfg.CXL.DDRChannels, cfg.DDR) is superseded by the Pooled entries.
	Hosts []sim.Config
	// Pooled configures the shared type-3 pool devices.
	Pooled []cxl.PooledDeviceConfig
}

// Validate checks rack-level configuration invariants and every host
// Config.
func (c Config) Validate() error {
	if len(c.Hosts) < 1 {
		return fmt.Errorf("rack: %q: needs >= 1 host", c.Name)
	}
	for h, hc := range c.Hosts {
		if err := hc.Validate(); err != nil {
			return fmt.Errorf("rack: %q host %d: %w", c.Name, h, err)
		}
	}
	if len(c.Pooled) > 0 {
		for h, hc := range c.Hosts {
			if hc.Kind != sim.CXLAttached {
				return fmt.Errorf("rack: %q: host %d is not CXL-attached; pooled devices need CXL ports", c.Name, h)
			}
		}
		for i, d := range c.Pooled {
			if d.DDRChannels < 1 {
				return fmt.Errorf("rack: %q: pooled device %d needs >= 1 DDR channel", c.Name, i)
			}
		}
	}
	return nil
}

// HostSeed derives host h's workload-generation seed from the rack seed:
// host 0 keeps the rack seed unchanged (the single-host identity), later
// hosts decorrelate via a golden-ratio stride.
func HostSeed(seed uint64, h int) uint64 {
	if h == 0 {
		return seed
	}
	return seed + uint64(h)*0x9E3779B97F4A7C15
}

// HostAddrOffset places host h's synthetic address space: disjoint 16 TiB
// windows so hosts sharing pooled devices never collide (each host's
// per-core bases stay below 1<<44). Host 0's offset is 0, preserving
// single-host bit-identity.
func HostAddrOffset(h int) uint64 { return uint64(h) << 44 }

// HostRunConfig derives host h's single-host run configuration from the
// rack-level one: the per-host seed plus a topology fingerprint that keys
// warm-state caches, so rack sweeps never alias warm entries across host
// counts or positions (sim.WarmKey).
func HostRunConfig(rc sim.RunConfig, cfg Config, h int) sim.RunConfig {
	rc.Seed = HostSeed(rc.Seed, h)
	rc.Topology = fmt.Sprintf("%s/p%d/hosts:%d/host:%d", cfg.Name, len(cfg.Pooled), len(cfg.Hosts), h)
	return rc
}

// DeviceStats summarizes one shared pooled device over the measured
// window.
type DeviceStats struct {
	Name string
	// TotalQueueCycles sums device-side queueing across all hosts: DDR
	// controller queuing delay of completed reads plus ingress-stall
	// cycles. Adding a host to a contended device never reduces it (the
	// metamorphic rack law).
	TotalQueueCycles uint64
	// QueueP50NS/P90NS/P99NS are tails of the device-side read queuing
	// delay distribution — the pooled-queue latency the rack quotes.
	QueueP50NS, QueueP90NS, QueueP99NS float64
	// HostReadBytes/HostWriteBytes attribute the device's data transfers
	// to hosts, indexed by host (the fairness accounting).
	HostReadBytes, HostWriteBytes []uint64
	// ReadGBs/WriteGBs are the device's achieved DDR bandwidth over the
	// rack's measured window; PeakGBs its theoretical peak.
	ReadGBs, WriteGBs, PeakGBs float64
	// DRAM is the device's raw DDR activity (unattributable per host; the
	// per-host slice is the byte tallies above).
	DRAM dram.Counters
}

// Result aggregates one rack run: per-host single-system results plus the
// rack-level aggregates.
type Result struct {
	Config string
	// Cycles is the measured window length (shared by all hosts — the
	// rack runs in lockstep).
	Cycles int64
	// Hosts holds each host's Result, in host-index order.
	Hosts []sim.Result
	// Devices summarizes each shared pooled device.
	Devices []DeviceStats
	// MeanIPC and GeomeanIPC aggregate the per-host mean IPCs.
	MeanIPC    float64
	GeomeanIPC float64
	// FairnessIndex is Jain's index over per-host IPCs: 1 when hosts
	// progress equally, approaching 1/hosts when contention starves some.
	FairnessIndex float64
}

// Run executes one rack experiment: cfg's hosts running workloads[h] on
// host h (one workload per active core), cold-started.
func Run(ctx context.Context, cfg Config, workloads [][]trace.Workload, rc sim.RunConfig) (Result, error) {
	return RunFrom(ctx, cfg, workloads, rc, nil)
}

// RunFrom is Run resuming hosts from pre-captured warm snapshots: warm[h]
// seeds host h (see sim.CaptureWarmHost); a nil warm slice or nil entry
// cold-starts that host. Cancellation stops at a cycle-window boundary and
// returns the partial measurements with a wrapping error.
func RunFrom(ctx context.Context, cfg Config, workloads [][]trace.Workload, rc sim.RunConfig, warm []*sim.WarmState) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(workloads) != len(cfg.Hosts) {
		return Result{}, fmt.Errorf("rack: %q: %d workload sets for %d hosts", cfg.Name, len(workloads), len(cfg.Hosts))
	}
	if warm != nil && len(warm) != len(cfg.Hosts) {
		return Result{}, fmt.Errorf("rack: %q: %d warm states for %d hosts", cfg.Name, len(warm), len(cfg.Hosts))
	}
	if err := rc.CheckWindows(); err != nil {
		return Result{}, fmt.Errorf("rack: %q: %w", cfg.Name, err)
	}
	if rc.SampleDetailInstr > 0 && rc.SampleFastFwdInstr > 0 {
		return Result{}, fmt.Errorf("rack: sampled simulation is incompatible with lockstep multi-host runs")
	}
	rk, err := build(cfg, workloads, rc, warm)
	if err != nil {
		return Result{}, err
	}
	var res Result
	err = sim.RunWindows(ctx, rk, "rack: "+cfg.Name, rc, func() { res = rk.collect(workloads) })
	return res, err
}

// rack is one assembled topology mid-run. It implements sim.Machine, so
// the single-host phase loop and timed-window driver run it.
type rack struct {
	cfg      Config
	hosts    []*sim.System
	ports    [][]*cxl.Port // per host, in channel order; nil when unpooled
	devices  []*cxl.PooledDevice
	clocking sim.Clocking
	// ddr, when validating, watches the pooled devices' DDR channels;
	// each host's own harness covers its private backends.
	ddr *validate.DDR

	now          int64
	measureStart int64
}

// build assembles devices, ports, and host systems in host-index order
// (attach order is the devices' arbitration order), watches the devices
// when validating, and runs each host's untimed warmup (or clones its
// warm snapshot).
func build(cfg Config, workloads [][]trace.Workload, rc sim.RunConfig, warm []*sim.WarmState) (*rack, error) {
	rk := &rack{cfg: cfg, clocking: rc.Clocking}
	if rc.Validate {
		rk.ddr = &validate.DDR{}
	}
	for i, dcfg := range cfg.Pooled {
		if dcfg.Name == "" {
			dcfg.Name = fmt.Sprintf("pool%d", i)
		}
		// Densify the device's DDR address decode exactly as a single
		// host's private per-channel devices would be (host 0's geometry),
		// so a 1-host rack is timing-identical to the single-System run.
		subs := cfg.Hosts[0].Channels * dcfg.DDRChannels * dcfg.DDR.SubChannels
		d := cxl.NewPooledDevice(dcfg, subs)
		if rk.ddr != nil {
			for ci, ch := range d.DDR() {
				rk.ddr.Watch(fmt.Sprintf("%s/ddr%d", dcfg.Name, ci), ch)
			}
		}
		rk.devices = append(rk.devices, d)
	}
	for h, hcfg := range cfg.Hosts {
		hp := sim.HostParams{Index: h, AddrOffset: HostAddrOffset(h)}
		var ports []*cxl.Port
		if len(rk.devices) > 0 {
			backends := make([]sim.ExternalBackend, hcfg.Channels)
			ports = make([]*cxl.Port, hcfg.Channels)
			for ch := 0; ch < hcfg.Channels; ch++ {
				p := rk.devices[ch%len(rk.devices)].AttachHost(hcfg.CXL.Link, hcfg.CXL.IngressDepth, h)
				ports[ch] = p
				backends[ch] = p
			}
			hp.Backends = backends
		}
		hrc := HostRunConfig(rc, cfg, h)
		var sys *sim.System
		var err error
		if warm != nil && warm[h] != nil {
			sys, err = sim.NewWarmSystem(hcfg, warm[h], hrc, hp)
		} else if sys, err = sim.NewHostSystem(hcfg, workloads[h], hrc.Seed, hp); err == nil {
			sys.Configure(hrc)
			sys.Prewarm(hrc)
		}
		if err != nil {
			return nil, fmt.Errorf("rack: %q host %d: %w", cfg.Name, h, err)
		}
		rk.hosts = append(rk.hosts, sys)
		rk.ports = append(rk.ports, ports)
	}
	return rk, nil
}

// Now implements sim.Stepper: the rack's lockstep cycle.
func (rk *rack) Now() int64 { return rk.now }

// SetTarget implements sim.Stepper: every host's cores retire target
// instructions per phase.
func (rk *rack) SetTarget(target uint64) {
	for _, s := range rk.hosts {
		s.SetTarget(target)
	}
}

// Done implements sim.Stepper: every core of every host reached its target.
func (rk *rack) Done() bool {
	for _, s := range rk.hosts {
		if !s.Done() {
			return false
		}
	}
	return true
}

// PhaseRetired implements sim.Stepper: the slowest core of the slowest
// host toward the lockstep phase target.
func (rk *rack) PhaseRetired(target uint64) uint64 {
	retired := target
	for _, s := range rk.hosts {
		retired = min(retired, s.PhaseRetired(target))
	}
	return retired
}

// Step implements sim.Stepper: the whole rack advances one chosen cycle,
// the phased H/D/E tick documented in the package comment.
func (rk *rack) Step(limit int64) (int64, bool) {
	next := rk.now + 1
	if rk.clocking == sim.EventDriven {
		next = limit
		for _, s := range rk.hosts {
			if t := s.NextEventBound(limit); t < next {
				next = t
			}
		}
		for _, d := range rk.devices {
			if t := d.NextEvent(rk.now); t < next {
				next = t
			}
		}
		if next <= rk.now {
			next = rk.now + 1
		}
	}

	// Phase H: hosts advance to `next` in host order, each touching only
	// host-private state (port ingress/response heaps are host-side).
	for _, s := range rk.hosts {
		s.TickCycle(next)
	}

	// Phase D: shared devices, sequential, fixed device order; each
	// serves its ports in fixed attach order (= host order) — the
	// deterministic cross-host arbitration point.
	for _, d := range rk.devices {
		d.TickDevice(next)
	}

	// Phase E: sequential per host, in host order — re-arm each host's
	// cached backend bounds (phase D scheduled new response deliveries;
	// wakes only clamp down, and phase D can only add events, so clamping
	// is sufficient).
	for h, s := range rk.hosts {
		for ch, p := range rk.ports[h] {
			s.WakeBackendAt(ch, p.NextEvent(next))
		}
	}
	rk.now = next
	return next, rk.Done()
}

// BeginMeasurement implements sim.Machine: it zeroes all measurement state
// at the warmup boundary — per-host counters (which also reset the shared
// devices' DDR counters, idempotently) plus the rack-level device queueing
// and fairness tallies.
func (rk *rack) BeginMeasurement() {
	for _, s := range rk.hosts {
		s.BeginMeasurement()
	}
	for _, d := range rk.devices {
		d.ResetStats()
	}
	rk.measureStart = rk.now
}

// collect snapshots per-host results, device stats, and rack aggregates.
func (rk *rack) collect(workloads [][]trace.Workload) Result {
	res := Result{Config: rk.cfg.Name, Cycles: rk.now - rk.measureStart}
	ipcs := make([]float64, 0, len(rk.hosts))
	for h, s := range rk.hosts {
		hr := s.Collect(workloads[h])
		res.Hosts = append(res.Hosts, hr)
		ipcs = append(ipcs, hr.IPC)
	}
	res.MeanIPC = stats.Mean(ipcs)
	res.GeomeanIPC = stats.Geomean(ipcs)
	res.FairnessIndex = stats.JainFairness(ipcs)
	for _, d := range rk.devices {
		ds := DeviceStats{
			Name:             d.Name(),
			TotalQueueCycles: d.TotalQueueCycles(),
			QueueP50NS:       clock.NS(d.QueuePercentile(50)),
			QueueP90NS:       clock.NS(d.QueuePercentile(90)),
			QueueP99NS:       clock.NS(d.QueuePercentile(99)),
			DRAM:             d.Counters(),
		}
		for h := range rk.hosts {
			r, w := d.HostBytes(h)
			ds.HostReadBytes = append(ds.HostReadBytes, r)
			ds.HostWriteBytes = append(ds.HostWriteBytes, w)
		}
		ds.ReadGBs = stats.GBs(ds.DRAM.ReadBytes, res.Cycles)
		ds.WriteGBs = stats.GBs(ds.DRAM.WriteBytes, res.Cycles)
		ds.PeakGBs = d.PeakGBs()
		res.Devices = append(res.Devices, ds)
	}
	return res
}

// Summary flattens a rack result into a single-system-shaped sim.Result
// so suite and sweep plumbing can carry rack jobs next to single-host
// ones: per-core IPCs concatenate across hosts in host order; traffic,
// DRAM activity, and CALM tallies sum; the latency columns are unweighted
// host means. IPC is the rack's MeanIPC. With pooled devices, PeakGBs is
// the devices' aggregate peak (summing per-host peaks would count every
// shared device once per attached host). Full per-host and per-device
// detail stays on the Result itself.
func (r Result) Summary() sim.Result {
	s := sim.Result{Config: r.Config, Cycles: r.Cycles, IPC: r.MeanIPC}
	if s.IPC > 0 {
		s.CPI = 1 / s.IPC
	}
	n := float64(len(r.Hosts))
	for _, hr := range r.Hosts {
		s.PerCoreIPC = append(s.PerCoreIPC, hr.PerCoreIPC...)
		s.Retired += hr.Retired
		s.ReadGBs += hr.ReadGBs
		s.WriteGBs += hr.WriteGBs
		s.PeakGBs += hr.PeakGBs
		s.OnChipNS += hr.OnChipNS / n
		s.QueueNS += hr.QueueNS / n
		s.ServiceNS += hr.ServiceNS / n
		s.CXLNS += hr.CXLNS / n
		s.TotalNS += hr.TotalNS / n
		s.P50NS += hr.P50NS / n
		s.P90NS += hr.P90NS / n
		s.P99NS += hr.P99NS / n
		s.LLCMPKI += hr.LLCMPKI / n
		s.LLCMissRatio += hr.LLCMissRatio / n
		s.FPDiscarded += hr.FPDiscarded
		s.CALM.Merge(hr.CALM)
		s.DRAM.Accumulate(hr.DRAM)
	}
	if len(r.Devices) > 0 {
		// Per-host results already report only each host's own port traffic,
		// so the sums above are the true rack totals; only the peak needs to
		// come from the shared devices.
		s.PeakGBs = 0
		for _, ds := range r.Devices {
			s.PeakGBs += ds.PeakGBs
		}
	}
	if s.PeakGBs > 0 {
		s.Utilization = (s.ReadGBs + s.WriteGBs) / s.PeakGBs
	}
	if len(r.Hosts) > 0 {
		s.Workload = r.Hosts[0].Workload
	}
	return s
}

// ValidationReport implements sim.Machine: it aggregates the rack's
// end-of-window checks — each host's own harness report, then the pooled
// devices' DDR harness. Returns nil when validation is off or every check
// passed.
func (rk *rack) ValidationReport() error {
	if rk.ddr == nil {
		return nil
	}
	count := 0
	var b strings.Builder
	for h, s := range rk.hosts {
		if err := s.ValidationReport(); err != nil {
			var ve *sim.ValidationError
			if errors.As(err, &ve) {
				count += ve.Count
				fmt.Fprintf(&b, "host %d:\n%s", h, ve.Report)
			} else {
				count++
				fmt.Fprintf(&b, "host %d: %v\n", h, err)
			}
		}
	}
	count += rk.ddr.Check(rk.now, &b)
	if count == 0 {
		return nil
	}
	return &sim.ValidationError{Count: count, Report: b.String()}
}
