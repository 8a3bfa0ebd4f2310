package main

import (
	"fmt"
	"time"

	"coaxial"
	"coaxial/internal/cxl"
	"coaxial/internal/dram"
	"coaxial/internal/memreq"
	"coaxial/internal/sim"
)

// channel is what the traced run needs of a single-host CXL backend: the
// System's backend surface plus the two optional interfaces System finds
// by type assertion (lazy sub-channel ticking and the retired drain).
// *cxl.Channel satisfies it.
type channel interface {
	sim.ExternalBackend
	SetLazy(on bool)
	SetCollectRetired(on bool)
	DrainRetired(fn func(*memreq.Request))
}

var _ channel = (*cxl.Channel)(nil)

// opCount is one backend operation's call count and inclusive host time.
type opCount struct {
	calls int
	ns    int64
}

// backendTimes accumulates, for every backend of one System, the calls the
// System makes into them. Backends of a Parallelism-1 System are called
// from one goroutine, so it needs no locking.
type backendTimes struct {
	tick, next, sync, enqueue opCount
	refused                   int

	// depth counts backend calls on the stack: a backend Tick delivers
	// completions into the System, which may enqueue into another backend.
	// Only outermost calls made inside a TickCycle add to inTickNS, so
	// the System's self time subtracts each nanosecond once.
	depth    int
	inTick   bool
	inTickNS int64
}

func (t *backendTimes) enter() int64 {
	t.depth++
	return mono()
}

func (t *backendTimes) exit(start int64, op *opCount) {
	d := mono() - start
	op.calls++
	op.ns += d
	t.depth--
	if t.depth == 0 && t.inTick {
		t.inTickNS += d
	}
}

// timedBackend decorates a channel with host-time accounting. It forwards
// SetLazy and the retired drain: System discovers both by type assertion,
// and a decorator hiding them would silently change event-mode behaviour.
type timedBackend struct {
	inner channel
	times *backendTimes
}

func (b *timedBackend) Enqueue(r *memreq.Request, at int64) bool {
	start := b.times.enter()
	ok := b.inner.Enqueue(r, at)
	b.times.exit(start, &b.times.enqueue)
	if !ok {
		b.times.refused++
	}
	return ok
}

func (b *timedBackend) Tick(now int64) {
	start := b.times.enter()
	b.inner.Tick(now)
	b.times.exit(start, &b.times.tick)
}

func (b *timedBackend) NextEvent(now int64) int64 {
	start := b.times.enter()
	t := b.inner.NextEvent(now)
	b.times.exit(start, &b.times.next)
	return t
}

func (b *timedBackend) Sync(now int64) {
	start := b.times.enter()
	b.inner.Sync(now)
	b.times.exit(start, &b.times.sync)
}

func (b *timedBackend) PeakGBs() float64                      { return b.inner.PeakGBs() }
func (b *timedBackend) Counters() dram.Counters               { return b.inner.Counters() }
func (b *timedBackend) ResetCounters()                        { b.inner.ResetCounters() }
func (b *timedBackend) Idle() bool                            { return b.inner.Idle() }
func (b *timedBackend) SetLazy(on bool)                       { b.inner.SetLazy(on) }
func (b *timedBackend) SetCollectRetired(on bool)             { b.inner.SetCollectRetired(on) }
func (b *timedBackend) DrainRetired(fn func(*memreq.Request)) { b.inner.DrainRetired(fn) }

// epoch anchors mono.
var epoch = time.Now()

// mono reads the monotonic clock in nanoseconds. It skips the wall-clock
// read time.Now also makes, which halves the cost of each of the traced
// run's millions of reads.
func mono() int64 { return int64(time.Since(epoch)) }

// hostTrace is one self-driven window's per-layer record.
type hostTrace struct {
	cpu                  float64 // CPU seconds of the whole window
	total, newSystem     time.Duration
	tickCalls, nextCalls int
	tickNS, nextNS       int64
	cycles               int64 // simulated, warmup plus measure
	backends             *backendTimes
}

// hostTracer returns a traced single-host window and a finish that sets
// the sim driver, event-scheduling and cxl metrics. The benchmark drives
// the window itself through sim's exported driver surface, with every CXL
// channel wrapped in a timedBackend. Each window's result must match the
// Runner's (the tally checks the digest), which shows the decorator and
// the driver only observe.
func (w *windowWorkload) hostTracer(rc coaxial.RunConfig, rep *report) (op func() float64, finish func() error, err error) {
	if w.cfg.Kind != sim.CXLAttached {
		return nil, nil, fmt.Errorf("%s: traced run needs CXL-attached channels", w.cfg.Name)
	}
	var capture []float64
	var ws *sim.WarmState
	for i := 0; i < 3; i++ {
		c, _, s, err := warmCost(w.cfg, w.mix, rc, sim.HostParams{})
		if err != nil {
			return nil, nil, err
		}
		capture = append(capture, c)
		ws = s
	}
	rep.set("sim.capture_warm_s", median(capture))

	var traces []hostTrace
	var runErr error
	op = func() float64 {
		res, tr, err := w.driveWindow(ws, rc)
		check(rep.tally, outcome{result: res}, err)
		if err != nil {
			runErr = err
		} else {
			traces = append(traces, tr)
		}
		return tr.cpu
	}
	finish = func() error {
		if len(traces) == 0 {
			return fmt.Errorf("no traced window completed: %w", runErr)
		}
		hostMetrics(rep, traces)
		return nil
	}
	return op, finish, nil
}

// driveWindow builds a System from ws over timed CXL channels and runs the
// timed warmup and measure phases exactly as sim.RunMixWarm would.
func (w *windowWorkload) driveWindow(ws *sim.WarmState, rc coaxial.RunConfig) (coaxial.Result, hostTrace, error) {
	tr := hostTrace{backends: &backendTimes{}}
	cpu0 := cpuSeconds()
	start := time.Now()
	ccfg := w.cfg.CXL
	ccfg.DDR = w.cfg.DDR
	subs := w.cfg.Channels * w.cfg.CXL.DDRChannels * w.cfg.DDR.SubChannels
	backends := make([]sim.ExternalBackend, w.cfg.Channels)
	for ch := range backends {
		backends[ch] = &timedBackend{inner: cxl.NewChannel(ccfg, subs), times: tr.backends}
	}
	sys, err := sim.NewWarmSystem(w.cfg, ws, rc, sim.HostParams{Backends: backends})
	if err != nil {
		return coaxial.Result{}, tr, err
	}
	defer sys.Close()
	tr.newSystem = time.Since(start)
	first := sys.Now()
	if rc.WarmupInstr > 0 {
		if err := tr.drive(sys, rc.WarmupInstr, rc); err != nil {
			return coaxial.Result{}, tr, err
		}
	}
	sys.BeginMeasurement()
	if err := tr.drive(sys, rc.MeasureInstr, rc); err != nil {
		return coaxial.Result{}, tr, err
	}
	res := sys.Collect(ws.Workloads())
	tr.cycles = sys.Now() - first
	tr.total = time.Since(start)
	tr.cpu = cpuSeconds() - cpu0
	return res, tr, nil
}

// drive runs sys until every core retires target instructions, in the
// order sim's own run loop uses: done check, cycle budget, then one
// NextEventBound and one TickCycle per simulated step.
func (tr *hostTrace) drive(sys *sim.System, target uint64, rc coaxial.RunConfig) error {
	sys.SetTarget(target)
	budget := sim.MaxCycles(target, rc)
	limit := sys.Now() + budget
	// Two clock reads per step: the span from the previous step's end to
	// the bound is next-event time (it includes the done check), the span
	// from the bound to the tick's end is tick time.
	last := mono()
	for !sys.Done() {
		if sys.Now() >= limit {
			return fmt.Errorf("exceeded cycle budget (%d cycles for %d instructions)", budget, target)
		}
		next := sys.NextEventBound(limit)
		bound := mono()
		tr.backends.inTick = true
		sys.TickCycle(next)
		tr.backends.inTick = false
		end := mono()
		tr.nextCalls++
		tr.nextNS += bound - last
		tr.tickCalls++
		tr.tickNS += end - bound
		last = end
	}
	return nil
}

// hostMetrics sets the sim driver, event-scheduling and cxl metrics from
// the traced windows: counts per window (they repeat exactly), times as
// per-window medians.
func hostMetrics(rep *report, traces []hostTrace) {
	med := func(f func(hostTrace) float64) float64 {
		v := make([]float64, len(traces))
		for i, t := range traces {
			v[i] = f(t)
		}
		return median(v)
	}
	t := traces[len(traces)-1]
	b := t.backends
	rep.set("sim.tick_calls", float64(t.tickCalls))
	tickS := med(func(t hostTrace) float64 { return float64(t.tickNS) / 1e9 })
	rep.set("sim.tick_s", tickS)
	rep.set("sim.ns_per_tick", tickS*1e9/float64(t.tickCalls))
	rep.set("sim.tick_self_s", med(func(t hostTrace) float64 { return float64(t.tickNS-t.backends.inTickNS) / 1e9 }))
	rep.set("sim.cycles", float64(t.cycles))
	rep.set("sim.skip_ratio", 1-float64(t.tickCalls)/float64(t.cycles))
	rep.set("sim.next_event_calls", float64(t.nextCalls))
	rep.set("sim.next_event_s", med(func(t hostTrace) float64 { return float64(t.nextNS) / 1e9 }))
	rep.set("sim.next_event_share", med(func(t hostTrace) float64 { return float64(t.nextNS) / float64(t.total.Nanoseconds()) }))
	rep.set("sim.new_system_s", med(func(t hostTrace) float64 { return t.newSystem.Seconds() }))

	rep.set("cxl.tick_calls", float64(b.tick.calls))
	cxlTickS := med(func(t hostTrace) float64 { return float64(t.backends.tick.ns) / 1e9 })
	rep.set("cxl.tick_s", cxlTickS)
	if b.tick.calls > 0 {
		rep.set("cxl.ns_per_tick", cxlTickS*1e9/float64(b.tick.calls))
	}
	rep.set("cxl.next_event_calls", float64(b.next.calls))
	rep.set("cxl.next_event_s", med(func(t hostTrace) float64 { return float64(t.backends.next.ns) / 1e9 }))
	rep.set("cxl.sync_calls", float64(b.sync.calls))
	rep.set("cxl.enqueue_calls", float64(b.enqueue.calls))
	rep.set("cxl.enqueue_refused", float64(b.refused))
	if b.enqueue.calls > 0 {
		rep.set("cxl.refused_ratio", float64(b.refused)/float64(b.enqueue.calls))
	}
}
