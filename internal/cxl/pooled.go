package cxl

import (
	"math"

	"coaxial/internal/dram"
	"coaxial/internal/memreq"
	"coaxial/internal/stats"
)

// This file is the package's one link and device model, in two halves: a
// host-side Port (the CPU-side CXL controller and the serial link, private
// to one host) and a PooledDevice (the type-3 device: per-port arbitration
// into a common set of DDR channels). A single-host Channel is a Port on
// its own private one-port device; a rack attaches several hosts' ports to
// one shared device.
//
// One cycle of a channel runs: (1) deliver due responses, (2) admit due
// ingress onto the TX link, (3) retry device-stalled requests, (4) drain
// link arrivals into the DDR controllers, (5) tick the DDR channels.
// Port.Tick runs steps 1–2 (host-side state only); TickDevice runs steps
// 3–5, visiting ports in fixed attach order. Channel.Tick runs Port.Tick
// then TickDevice. A rack instead runs every host's port ticks, then every
// device — with a single port that interleaving across channels is
// immaterial: steps 1–2 never read device state, steps 3–5 never read
// host-side state, and every cross-step handoff (a response scheduled in
// step 5 via Port.Complete, an arrival pushed in step 2) targets a
// strictly future cycle. So a one-host rack is bit-identical to the
// equivalent single-System run (TestRackClockingEquivalence).

// PooledDeviceConfig describes one shared type-3 pool device.
type PooledDeviceConfig struct {
	// Name labels the device in rack results ("pool0", ...).
	Name string
	// DDR configures each DDR channel on the device.
	DDR dram.Config
	// DDRChannels is the number of DDR channels on the device.
	DDRChannels int
}

// PooledDevice is a type-3 memory pool shared by several hosts: a set of
// DDR channels fed by per-host Ports. All device-side state advances only
// inside TickDevice, which the rack driver calls once per cycle, after
// every host and in fixed device order — the deterministic coupling point
// between hosts.
type PooledDevice struct {
	cfg   PooledDeviceConfig
	ddr   []*dram.Channel
	ports []*Port

	// Per-host accounting over the measurement window, indexed by host ID
	// (grown on attach). Reads/writes are counted as the device forwards
	// them into a DDR controller; bytes at data transfer (response for
	// reads, forward for writes).
	hostReadBytes  []uint64
	hostWriteBytes []uint64

	// queueHist distributes device-side queuing delay (DDR controller
	// arrival to first command) of completed reads, in cycles; the rack
	// quotes its tails as the pooled-queue latency percentiles.
	queueHist *stats.Histogram
	// totalQueueCycles sums the same delays plus ingress-stall (retry)
	// cycles across all hosts: the device's total queueing, the quantity
	// the metamorphic rack law bounds (adding a host to a contended device
	// never reduces it).
	totalQueueCycles uint64
}

// NewPooledDevice builds a pool device. systemSubChannels densifies the DDR
// address decode as for direct channels.
func NewPooledDevice(cfg PooledDeviceConfig, systemSubChannels int) *PooledDevice {
	d := &PooledDevice{}
	d.init(cfg, systemSubChannels)
	return d
}

// init builds the device in place (a Channel embeds its private device).
func (d *PooledDevice) init(cfg PooledDeviceConfig, systemSubChannels int) {
	if cfg.DDRChannels < 1 {
		cfg.DDRChannels = 1
	}
	d.cfg = cfg
	d.queueHist = stats.NewHistogram(6000, 4)
	d.ddr = make([]*dram.Channel, cfg.DDRChannels)
	for i := range d.ddr {
		d.ddr[i] = dram.NewChannel(cfg.DDR, systemSubChannels)
	}
}

// Name returns the device's configured label.
func (d *PooledDevice) Name() string { return d.cfg.Name }

// AttachHost creates a Port binding one of a host's CXL channels to this
// device. Attach order is arbitration order: TickDevice serves ports in the
// order they were attached, so the rack driver attaches hosts in index
// order to make cross-host arbitration deterministic. host tags the port's
// traffic for fairness accounting and validation walks.
func (d *PooledDevice) AttachHost(link LinkParams, ingressDepth, host int) *Port {
	p := &Port{}
	d.attach(p, link, ingressDepth, host)
	return p
}

// attach initializes p in place as the device's next port (a Channel
// embeds its port).
func (d *PooledDevice) attach(p *Port, link LinkParams, ingressDepth, host int) {
	if ingressDepth < 1 {
		ingressDepth = 64
	}
	*p = Port{
		dev:          d,
		host:         host,
		ingressDepth: ingressDepth,
		port:         link.portCycles(),
		rxSer:        link.rxSerCycles(),
		txData:       link.txDataSerCycles(),
		txReq:        link.txReqSerCycles(),
	}
	d.ports = append(d.ports, p)
	for len(d.hostReadBytes) <= host {
		d.hostReadBytes = append(d.hostReadBytes, 0)
		d.hostWriteBytes = append(d.hostWriteBytes, 0)
	}
}

// Ports returns the attached ports in arbitration order.
func (d *PooledDevice) Ports() []*Port { return d.ports }

// DDR exposes the device's DDR channels (validation taps and tests).
func (d *PooledDevice) DDR() []*dram.Channel { return d.ddr }

// TickDevice advances the device side of every attached port, then the DDR
// channels, to cycle now. Ports are served in attach order: stalled
// requests retry first (FIFO), then due link arrivals drain into the DDR
// controllers. Must be called from one goroutine, after every attached
// port's Tick for the cycle (the rack's sequential device phase).
func (d *PooledDevice) TickDevice(now int64) {
	for _, p := range d.ports {
		p.tickDeviceSide(now)
	}
	for _, ch := range d.ddr {
		ch.Tick(now)
	}
}

// NextEvent returns the earliest cycle after now at which TickDevice could
// make progress: a link arrival coming due at any port, or a device DDR
// channel event. Cycles skipped on that basis are provable no-ops. The
// same bound covers device-stalled requests: a DDR queue slot only frees
// when a sub-channel issues a CAS (arrival pops move pending counts into
// the queues without changing the admission sum), and every such issue
// happens at a cycle the DDR channels' own NextEvent already reports, so
// stalled retries between DDR events are provably rejected again.
func (d *PooledDevice) NextEvent(now int64) int64 {
	next := int64(math.MaxInt64)
	for _, p := range d.ports {
		if t, ok := p.deviceQ.PeekAt(); ok && t < next {
			next = t
		}
	}
	for _, ch := range d.ddr {
		if t := ch.NextEvent(now); t < next {
			next = t
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// SetLazy switches per-sub-channel event skipping on or off in the
// device's DDR channels. The link layer itself needs no lazy cache: its own
// Tick is cheap and the system-level event loop already skips the whole
// channel when it is idle.
func (d *PooledDevice) SetLazy(on bool) {
	for _, ch := range d.ddr {
		ch.SetLazy(on)
	}
}

// Sync realizes lagging background accounting in the DDR channels.
// Idempotent at a cycle, so each host's port may forward its Sync here.
func (d *PooledDevice) Sync(now int64) {
	for _, ch := range d.ddr {
		ch.Sync(now)
	}
}

// Counters sums the device's DRAM activity across its DDR channels.
func (d *PooledDevice) Counters() dram.Counters {
	var total dram.Counters
	for _, ch := range d.ddr {
		total.Accumulate(ch.Counters())
	}
	return total
}

// ResetCounters zeroes the device DDR counters. Idempotent, so each port's
// ResetCounters may forward here at the same measurement boundary.
func (d *PooledDevice) ResetCounters() {
	for _, ch := range d.ddr {
		ch.ResetCounters()
	}
}

// ResetStats zeroes the device-level queueing and fairness accounting at
// the measurement boundary (the rack driver calls it alongside each host's
// stats reset).
func (d *PooledDevice) ResetStats() {
	d.queueHist.Reset()
	d.totalQueueCycles = 0
	for i := range d.hostReadBytes {
		d.hostReadBytes[i] = 0
		d.hostWriteBytes[i] = 0
	}
}

// TotalQueueCycles returns the device's accumulated queueing: DDR
// controller queuing delay of completed reads plus ingress-stall cycles,
// summed across all hosts since the last ResetStats.
func (d *PooledDevice) TotalQueueCycles() uint64 { return d.totalQueueCycles }

// QueuePercentile returns the p-th percentile of device-side read queuing
// delay, in cycles.
func (d *PooledDevice) QueuePercentile(p float64) int64 { return d.queueHist.Percentile(p) }

// HostBytes returns host h's bytes read from and written to this device
// since the last ResetStats (the fairness accounting input).
func (d *PooledDevice) HostBytes(h int) (read, write uint64) {
	if h < 0 || h >= len(d.hostReadBytes) {
		return 0, 0
	}
	return d.hostReadBytes[h], d.hostWriteBytes[h]
}

// PeakGBs returns the device's peak deliverable DDR bandwidth.
func (d *PooledDevice) PeakGBs() float64 {
	var total float64
	for _, ch := range d.ddr {
		total += ch.PeakGBs()
	}
	return total
}

// Idle reports whether the device's DDR channels have fully drained.
func (d *PooledDevice) Idle() bool {
	for _, ch := range d.ddr {
		if !ch.Idle() {
			return false
		}
	}
	return true
}

// ddrEnqueue routes a request to the device DDR channel for its address.
func (d *PooledDevice) ddrEnqueue(r *memreq.Request, now int64) bool {
	ch := d.ddr[0]
	if len(d.ddr) > 1 {
		line := r.Addr >> memreq.LineShift
		h := line ^ (line >> 6) ^ (line >> 11)
		ch = d.ddr[h%uint64(len(d.ddr))]
	}
	return ch.Enqueue(r, now)
}

// waiting is a request stalled at the device ingress on DDR backpressure.
type waiting struct {
	req   *memreq.Request
	since int64 //lint:unit cycles
}

// Port is the host-side half of one CXL channel into a PooledDevice: the
// CPU-side CXL controller, the serial link in both directions, and the
// response path. It implements the full backend surface (memreq.Backend,
// counters, retired-write collection, validation walks), so a sim.System
// embeds it exactly like any other memory backend.
//
// Phase contract: Enqueue, Tick, NextEvent, and the response deliveries
// inside Tick touch only port-local state (the rack's host phase).
// deviceQ, stalled, outstanding, and stats are written by the device phase
// (TickDevice) and by Enqueue/Tick, which the rack driver runs as separate
// phases of one cycle.
type Port struct {
	dev          *PooledDevice
	host         int
	ingressDepth int

	// Link traversal and serialization latencies, pre-converted to cycles.
	port                 int64 //lint:unit cycles
	rxSer, txData, txReq int64 //lint:unit cycles

	// Link occupancy cursors.
	txFree int64 //lint:unit cycles
	rxFree int64 //lint:unit cycles

	// ingress: requests accepted from the cache hierarchy, awaiting TX link
	// allocation (host phase).
	ingress memreq.TimedHeap
	// deviceQ: requests in flight on the link, ordered by device arrival;
	// drained by the device phase.
	deviceQ memreq.TimedHeap
	// stalled: requests at the device waiting for a DDR queue slot
	// (device phase).
	stalled []waiting
	// responses: completed reads traversing back, ordered by CPU-side
	// delivery cycle (pushed by the device phase, popped by the host phase
	// of later cycles).
	responses memreq.TimedHeap

	// outstanding counts requests admitted but not yet accepted by a DDR
	// controller. Enqueue (host phase) increments and admits against it;
	// the device phase decrements, so a credit it frees is visible to the
	// very next cycle's host phase.
	outstanding int

	// retired buffers writes that died inside the device (committed with
	// no requester completer). Only collected when collectRetired is set —
	// the simulator drains the buffer at a cycle barrier to recycle arena
	// requests; raw users leave it off and such requests simply become
	// unreferenced.
	collectRetired bool
	//lint:owns handed to the owning System's retired drain by DrainRetired, which releases them
	retired []*memreq.Request

	stats Stats
	// readBytes/writeBytes tally this port's data transfers for per-host
	// counter attribution on shared devices.
	readBytes, writeBytes uint64
	now                   int64 //lint:unit cycles
}

// Host returns the attached host's index.
func (p *Port) Host() int { return p.host }

// Device returns the pool device this port feeds.
func (p *Port) Device() *PooledDevice { return p.dev }

// Enqueue implements memreq.Backend: the request enters the CPU-side CXL
// controller at cycle at, unless IngressDepth requests are already
// outstanding.
func (p *Port) Enqueue(r *memreq.Request, at int64) bool {
	if p.outstanding >= p.ingressDepth {
		return false
	}
	if at < p.now {
		at = p.now
	}
	p.outstanding++
	// Interpose on the completion path: remember the requester's
	// completer and route DRAM completions back through this port.
	r.Inner = r.Ret
	r.Ret = p
	p.ingress.Push(at, r)
	return true
}

// Complete receives DRAM-side completions from the shared device (read
// data ready, or write committed) and schedules the response path. Runs in
// the sequential device phase (the DDR channels tick there), so pushing
// into the port's response heap is race-free; deliveries happen in later
// cycles' host phases because the device egress port alone puts the
// delivery at least one cycle out.
func (p *Port) Complete(r *memreq.Request, now int64) {
	if r.Kind == memreq.Write {
		// Write data was already transferred; no response modeled (CXL
		// write completions are small NDR messages off the critical path).
		// A write with no requester completer dies here — buffer it for
		// the retired drain when collection is on.
		p.writeBytes += memreq.LineSize
		p.dev.hostWriteBytes[p.host] += memreq.LineSize
		if r.Inner != nil {
			r.Inner.Complete(r, now)
		} else if p.collectRetired {
			p.retired = append(p.retired, r)
		}
		return
	}
	p.readBytes += memreq.LineSize
	p.dev.hostReadBytes[p.host] += memreq.LineSize
	if q := r.QueueDelay(); q >= 0 {
		p.dev.queueHist.Add(q)
		p.dev.totalQueueCycles += uint64(q)
	}
	// Response path: device egress port, RX serialization under link
	// occupancy, CPU ingress port.
	ready := now + p.port
	start := ready
	if p.rxFree > start {
		start = p.rxFree
	}
	p.rxFree = start + p.rxSer
	deliver := start + p.rxSer + p.port
	r.CXLTime += deliver - now
	p.responses.Push(deliver, r)
}

// Tick implements memreq.Backend for the host-side half: deliver due
// responses, admit due ingress onto the TX link. Device-side work (stalled
// retries, link-arrival drain, DDR ticks) belongs to
// PooledDevice.TickDevice.
func (p *Port) Tick(now int64) {
	if now <= p.now {
		return
	}
	p.now = now

	// Deliver due responses to the original requesters.
	for {
		r, ok := p.responses.PopDue(now)
		if !ok {
			break
		}
		p.stats.RespDelivered++
		if r.Inner != nil {
			r.Inner.Complete(r, now)
		}
	}

	// Admit due ingress requests onto the TX link.
	for {
		r, ok := p.ingress.PopDue(now)
		if !ok {
			break
		}
		ser := p.txReq
		if r.Kind == memreq.Write {
			ser = p.txData
		}
		ready := now + p.port
		start := ready
		if p.txFree > start {
			start = p.txFree
		}
		p.txFree = start + ser
		arrive := start + ser + p.port
		r.CXLTime += arrive - now
		p.deviceQ.Push(arrive, r)
	}
}

// tickDeviceSide runs this port's device-phase work at cycle now: retry
// stalled requests in FIFO order, then drain due link arrivals into the
// shared DDR controllers, stopping at the first stall. Called only by
// PooledDevice.TickDevice.
func (p *Port) tickDeviceSide(now int64) {
	for len(p.stalled) > 0 {
		w := p.stalled[0]
		if !p.dev.ddrEnqueue(w.req, now) {
			break
		}
		// Waiting for a DDR queue slot is memory queuing, not interface
		// time; attribute it alongside controller-queue spill.
		wait := uint64(now - w.since)
		p.stats.RetryCycles += wait
		p.dev.totalQueueCycles += wait
		w.req.Spill += now - w.since
		// Pop by compaction: the FIFO keeps its backing array, so the
		// append that refills it does not reallocate.
		n := copy(p.stalled, p.stalled[1:])
		p.stalled[n] = waiting{}
		p.stalled = p.stalled[:n]
		p.noteForwarded(w.req)
	}
	if len(p.stalled) == 0 {
		for {
			r, ok := p.deviceQ.PopDue(now)
			if !ok {
				break
			}
			if p.dev.ddrEnqueue(r, now) {
				p.noteForwarded(r)
			} else {
				p.stalled = append(p.stalled, waiting{req: r, since: now})
				break
			}
		}
	}
}

func (p *Port) noteForwarded(r *memreq.Request) {
	p.outstanding--
	if r.Kind == memreq.Write {
		p.stats.WritesForwarded++
	} else {
		p.stats.ReadsForwarded++
	}
}

// NextEvent implements memreq.Backend for the host-side half only: the
// earliest due response delivery or ingress admission. Device-side events
// (link arrivals, DDR activity) are bounded by PooledDevice.NextEvent,
// which Channel.NextEvent and the rack driver fold in; after each rack
// device phase the driver re-arms the owning system's cached bound with a
// fresh call here (responses scheduled by the device phase only ever lower
// it).
func (p *Port) NextEvent(now int64) int64 {
	next := int64(math.MaxInt64)
	if t, ok := p.responses.PeekAt(); ok && t < next {
		next = t
	}
	if t, ok := p.ingress.PeekAt(); ok && t < next {
		next = t
	}
	if next <= now {
		return now + 1
	}
	return next
}

// SetLazy forwards the clocking mode to the shared device's DDR channels
// (idempotent across ports).
func (p *Port) SetLazy(on bool) { p.dev.SetLazy(on) }

// Sync realizes lagging accounting in the shared device (idempotent across
// ports; the port itself keeps no per-cycle accounting).
func (p *Port) Sync(now int64) { p.dev.Sync(now) }

// PeakGBs implements memreq.Backend: the DDR capacity behind the device
// (the host's utilization is quoted against the full pool it can reach;
// utilization in the paper's figures is quoted against DRAM peak).
func (p *Port) PeakGBs() float64 { return p.dev.PeakGBs() }

// Counters reports the DRAM activity attributable to this port. A sole
// port owns its device outright and reports the device's full DRAM
// counters — making a one-host rack's per-host Result identical to the
// single-System one. With multiple ports sharing the device, DRAM commands
// cannot be attributed per host, so the port reports only its own data
// transfers (RD/WR command counts and bytes); the full device counters
// appear in the rack result's per-device stats.
func (p *Port) Counters() dram.Counters {
	if len(p.dev.ports) == 1 {
		return p.dev.Counters()
	}
	return dram.Counters{
		RD:         p.readBytes / memreq.LineSize,
		WR:         p.writeBytes / memreq.LineSize,
		ReadBytes:  p.readBytes,
		WriteBytes: p.writeBytes,
	}
}

// ResetCounters zeroes the port's tallies and the device DDR counters
// (idempotent across ports resetting at the same measurement boundary).
func (p *Port) ResetCounters() {
	p.stats = Stats{}
	p.readBytes, p.writeBytes = 0, 0
	p.dev.ResetCounters()
}

// LinkStats returns this port's link activity counters.
func (p *Port) LinkStats() Stats { return p.stats }

// SetCollectRetired enables buffering of writes that die inside the device
// (committed with no requester completer) for the owning system's retired
// drain. Retirements happen in the device phase, so the rack driver drains
// them in its phase after the device phase — not inside the host tick.
func (p *Port) SetCollectRetired(on bool) { p.collectRetired = on }

// DrainRetired hands every buffered retired request to fn and clears the
// buffer. Call only from the rack's sequential phases.
func (p *Port) DrainRetired(fn func(*memreq.Request)) {
	if len(p.retired) == 0 {
		return
	}
	for i, r := range p.retired {
		p.retired[i] = nil
		fn(r)
	}
	p.retired = p.retired[:0]
}

// Outstanding reports requests admitted but not yet accepted by a device
// DDR controller.
func (p *Port) Outstanding() int { return p.outstanding }

// IngressDepth reports the configured admission bound on Outstanding.
func (p *Port) IngressDepth() int { return p.ingressDepth }

// ForEachPending visits every request currently inside this port: awaiting
// the TX link, in flight to the device, stalled on DDR backpressure, or
// traversing back on the response path. Requests inside the shared DDR
// controllers are not included — the rack walks each device's DDR once and
// dispatches by Request.Host, so no request is visited twice when a host
// has several ports on one device.
func (p *Port) ForEachPending(fn func(*memreq.Request)) {
	p.ingress.ForEach(fn)
	p.deviceQ.ForEach(fn)
	for i := range p.stalled {
		fn(p.stalled[i].req)
	}
	p.responses.ForEach(fn)
}

// Idle reports whether the port and the shared device have fully drained.
// On a shared device another host's in-flight work keeps Idle false — the
// conservative answer for drain checks.
func (p *Port) Idle() bool {
	if p.outstanding != 0 || p.ingress.Len() != 0 || p.deviceQ.Len() != 0 ||
		len(p.stalled) != 0 || p.responses.Len() != 0 {
		return false
	}
	return p.dev.Idle()
}
