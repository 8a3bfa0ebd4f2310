package coaxial

import (
	"fmt"

	"coaxial/internal/cxl"
	"coaxial/internal/rack"
	"coaxial/internal/sim"
	"coaxial/internal/stats"
)

// Rack-scale types, re-exported from the engine.
type (
	// RackConfig describes a multi-host topology: per-host system configs
	// plus the shared pooled CXL devices their channels attach to.
	RackConfig = rack.Config
	// RackResult aggregates one rack run: per-host Results plus rack-level
	// aggregates (geomean speedup inputs, fairness, pooled-queue tails).
	RackResult = rack.Result
	// RackDeviceStats summarizes one shared pooled device.
	RackDeviceStats = rack.DeviceStats
	// PooledDeviceConfig parameterizes one shared CXL type-3 pool device.
	PooledDeviceConfig = cxl.PooledDeviceConfig
)

// RackHostSeed derives host h's workload seed from the rack seed (host 0
// keeps it unchanged — the single-host identity).
func RackHostSeed(seed uint64, h int) uint64 { return rack.HostSeed(seed, h) }

// TopologyPreset is a constructed host-level topology: the unit the
// simulator runs is no longer "a Config" but "a rack of one or more
// hosts, possibly sharing pooled devices". The classic single-system
// presets are racks of one uncoupled host; CoaxialPooled generalizes to N
// hosts contending for the same pool devices.
//
// Presets are plain values — mutate the embedded Rack freely before
// running it.
type TopologyPreset struct {
	// Name is the preset's canonical name ("coaxial-pooled@4h", ...).
	Name string
	// Rack is the full topology.
	Rack RackConfig
}

// Single returns the preset's host Config when the topology is exactly
// one host (ok false otherwise): the path existing single-system drivers
// take. A 1-host pooled topology is bit-identical either way (pinned by
// TestRackClockingEquivalence), so collapsing it to the faster
// single-system path preserves results exactly.
func (p TopologyPreset) Single() (Config, bool) {
	if len(p.Rack.Hosts) == 1 {
		return p.Rack.Hosts[0], true
	}
	return Config{}, false
}

// WithHosts returns the preset scaled to n hosts: host 0's Config
// replicated n times over the same pooled devices. For pooled topologies
// the device count stays fixed, so contention grows with n (the rack
// experiment); for device-less presets the hosts merely run in lockstep,
// uncoupled — a rack-shaped baseline for fairness comparisons.
func (p TopologyPreset) WithHosts(n int) TopologyPreset {
	if n < 1 || len(p.Rack.Hosts) == 0 {
		return p
	}
	base := p.Rack.Hosts[0].Name
	name := base
	if n > 1 {
		name = fmt.Sprintf("%s@%dh", base, n)
	}
	out := TopologyPreset{Name: name, Rack: RackConfig{Name: name, Pooled: p.Rack.Pooled}}
	for h := 0; h < n; h++ {
		out.Rack.Hosts = append(out.Rack.Hosts, p.Rack.Hosts[0])
	}
	return out
}

// singleTopology wraps a single-system preset as a 1-host rack.
func singleTopology(cfg Config) TopologyPreset {
	return TopologyPreset{Name: cfg.Name, Rack: RackConfig{Name: cfg.Name, Hosts: []Config{cfg}}}
}

// TopologyDDRBaseline is the DDR-based server as a 1-host topology.
func TopologyDDRBaseline() TopologyPreset { return singleTopology(sim.Baseline()) }

// TopologyCoaxial2x is the 2x-bandwidth COAXIAL variant as a topology.
func TopologyCoaxial2x() TopologyPreset { return singleTopology(sim.Coaxial2x()) }

// TopologyCoaxial4x is the default COAXIAL system as a topology.
func TopologyCoaxial4x() TopologyPreset { return singleTopology(sim.Coaxial4x()) }

// TopologyCoaxial5x is the iso-pin COAXIAL variant as a topology.
func TopologyCoaxial5x() TopologyPreset { return singleTopology(sim.Coaxial5x()) }

// TopologyCoaxialAsym is the asymmetric-lane variant as a topology.
func TopologyCoaxialAsym() TopologyPreset { return singleTopology(sim.CoaxialAsym()) }

// TopologyCoaxialPooled is the rack topology proper: `hosts` CoaxialPooled
// hosts whose CXL channels all land on shared pool devices — one device
// per host channel, each fronting the preset's per-device DDR channels —
// so every device is contended by all hosts. hosts < 1 is treated as 1;
// the 1-host topology reproduces the single-system CoaxialPooled preset
// bit-for-bit.
func TopologyCoaxialPooled(hosts int) TopologyPreset {
	if hosts < 1 {
		hosts = 1
	}
	host := sim.CoaxialPooled()
	p := TopologyPreset{Name: host.Name, Rack: RackConfig{Name: host.Name, Hosts: []Config{host}}}
	for ch := 0; ch < host.Channels; ch++ {
		p.Rack.Pooled = append(p.Rack.Pooled, PooledDeviceConfig{
			Name:        fmt.Sprintf("pool%d", ch),
			DDR:         host.DDR,
			DDRChannels: host.CXL.DDRChannels,
		})
	}
	return p.WithHosts(hosts)
}

// topologyPresets is the canonical preset list, in Table II order.
var topologyPresets = []struct {
	name string
	make func() TopologyPreset
}{
	{"ddr-baseline", TopologyDDRBaseline},
	{"coaxial-2x", TopologyCoaxial2x},
	{"coaxial-4x", TopologyCoaxial4x},
	{"coaxial-5x", TopologyCoaxial5x},
	{"coaxial-asym", TopologyCoaxialAsym},
	{"coaxial-pooled", func() TopologyPreset { return TopologyCoaxialPooled(1) }},
}

// TopologyNames returns the canonical preset names in Table II order.
func TopologyNames() []string {
	names := make([]string, len(topologyPresets))
	for i, p := range topologyPresets {
		names[i] = p.name
	}
	return names
}

// TopologyPresetByName resolves a preset by its canonical name.
func TopologyPresetByName(name string) (TopologyPreset, error) {
	for _, p := range topologyPresets {
		if p.name == name {
			return p.make(), nil
		}
	}
	return TopologyPreset{}, fmt.Errorf("coaxial: unknown topology preset %q (have %v)", name, TopologyNames())
}

// RackSpeedup returns the geometric mean over hosts of the per-host IPC
// ratio of res over base — the rack-level headline speedup. The racks
// must have the same host count.
func RackSpeedup(res, base RackResult) float64 {
	if len(res.Hosts) == 0 || len(res.Hosts) != len(base.Hosts) {
		return 0
	}
	ratios := make([]float64, 0, len(res.Hosts))
	for i := range res.Hosts {
		if base.Hosts[i].IPC <= 0 {
			return 0
		}
		ratios = append(ratios, res.Hosts[i].IPC/base.Hosts[i].IPC)
	}
	return stats.Geomean(ratios)
}
