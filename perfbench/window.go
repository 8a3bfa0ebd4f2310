package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"coaxial"
	"coaxial/internal/clock"
	"coaxial/internal/rack"
	"coaxial/internal/sim"
	"coaxial/internal/trace"
)

// windows are per-core instruction budgets: the untimed functional warmup
// (captured once per warm key) and the timed warmup and measure phases.
type windows struct {
	functional, warmup, measure uint64
}

// tinyWindows are the smoke tests' budgets: every path runs, in milliseconds.
var tinyWindows = windows{functional: 10_000, warmup: 1_000, measure: 4_000}

// windowWorkload repeats warm experiment windows through one shared
// coaxial.Runner, on a single host (loaded, idle) or a rack (rack2h).
type windowWorkload struct {
	name string
	win  windows

	// Single host: cfg running mix, one workload per active core.
	cfg         coaxial.Config
	mix         []coaxial.Workload
	parallelism int

	// Rack: topology running hostMix[h] on host h.
	rack            *coaxial.RackConfig
	hostMix         [][]coaxial.Workload
	rackParallelism int
}

// loadedWorkload is the paper's headline regime: all 12 cores of
// COAXIAL-4x on Fig. 6 mix 3, with the windows of the old
// BenchmarkRunWindowLoaded. Cores, the FR-FCFS scan and the CXL links have
// work on almost every cycle, so event clocking can skip very little.
func loadedWorkload() *windowWorkload {
	return &windowWorkload{
		name:        "loaded",
		win:         windows{functional: 100_000, warmup: 5_000, measure: 60_000},
		cfg:         coaxial.Coaxial4x(),
		mix:         coaxial.MixWorkloads(3, 12),
		parallelism: 1,
	}
}

// idleWorkload is the bypass case for core and FR-FCFS work: one canneal
// core on COAXIAL-asym leaves 16 DDR sub-channels and 4 links idle almost
// always, so NextEventBound and lazy Sync carry the window.
func idleWorkload() *windowWorkload {
	w, err := coaxial.WorkloadByName("canneal")
	if err != nil {
		panic(err) // the workload table is compiled in
	}
	return &windowWorkload{
		name:        "idle",
		win:         windows{functional: 100_000, warmup: 5_000, measure: 1_500_000},
		cfg:         coaxial.CoaxialAsym().WithActiveCores(1),
		mix:         []coaxial.Workload{w},
		parallelism: 1,
	}
}

// rackWorkload is the only path through rack.step, the rack worker pool
// and PooledDevice arbitration: two COAXIAL-pooled hosts on staggered rack
// mixes, hosts ticked on two goroutines. The measure window is a third of
// the old BenchmarkRunWindowRack's so one run holds the 20 windows a
// median needs.
func rackWorkload() *windowWorkload {
	topo := coaxial.TopologyCoaxialPooled(2).Rack
	return &windowWorkload{
		name:            "rack2h",
		win:             windows{functional: 100_000, warmup: 5_000, measure: 20_000},
		rack:            &topo,
		hostMix:         [][]coaxial.Workload{coaxial.RackMixWorkloads(0, 12), coaxial.RackMixWorkloads(1, 12)},
		rackParallelism: 2,
	}
}

func (w *windowWorkload) windows(o options) windows {
	if o.tiny {
		return tinyWindows
	}
	return w.win
}

// newRunner builds the workload's Runner; set-up and every timed window
// share its warm cache.
func (w *windowWorkload) newRunner(o options) *coaxial.Runner {
	win := w.windows(o)
	return coaxial.NewRunner(
		coaxial.WithSeed(o.seed),
		coaxial.WithWindows(win.functional, win.warmup, win.measure),
		coaxial.WithClocking(coaxial.EventDriven),
		coaxial.WithParallelism(w.parallelism),
		coaxial.WithRackParallelism(w.rackParallelism),
	)
}

// outcome is one window's result: the value its digest covers (a Result
// or a RackResult), the single-host shaped summary the model metrics read,
// and the simulated instructions (timed warmup target plus measured
// retirement, over every core and host).
type outcome struct {
	result  any
	summary coaxial.Result
	rack    *coaxial.RackResult
	instr   uint64
}

// window runs one experiment window through r.
func (w *windowWorkload) window(ctx context.Context, r *coaxial.Runner) (outcome, error) {
	warmup := r.Config().WarmupInstr
	if w.rack != nil {
		rr, err := r.RunRack(ctx, *w.rack, w.hostMix)
		out := outcome{result: rr, summary: rr.Summary(), rack: &rr}
		for h, hr := range rr.Hosts {
			out.instr += warmup*uint64(len(w.hostMix[h])) + hr.Retired
		}
		// Pooled DDR activity lives in the shared devices, not the hosts.
		out.summary.DRAM.RowHits, out.summary.DRAM.RowMisses = 0, 0
		for _, d := range rr.Devices {
			out.summary.DRAM.RowHits += d.DRAM.RowHits
			out.summary.DRAM.RowMisses += d.DRAM.RowMisses
		}
		return out, err
	}
	res, err := r.RunMix(ctx, w.cfg, w.mix)
	return outcome{result: res, summary: res, instr: warmup*uint64(len(w.mix)) + res.Retired}, err
}

// setup builds a fresh Runner and pays its warm captures (LLC pre-fill and
// functional warmup) through a one-instruction window, which shares the
// timed windows' warm key. It returns the Runner and the CPU seconds taken.
func (w *windowWorkload) setup(ctx context.Context, o options) (*coaxial.Runner, float64, error) {
	start := cpuSeconds()
	r := w.newRunner(o)
	win := w.windows(o)
	if _, err := w.window(ctx, r.With(coaxial.WithWindows(win.functional, 0, 1))); err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return r, cpuSeconds() - start, nil
}

// check books one window in the tally under the key "window".
func check(t *tally, out outcome, err error) {
	if err != nil {
		t.record("window", "", err)
		return
	}
	d, err := digest(out.result)
	t.record("window", d, err)
}

func (w *windowWorkload) run(o options) (*report, error) {
	ctx := context.Background()
	rep := newReport(newTally(o.pins(w.name)))

	setups := o.setups
	if o.trace {
		setups = 1
	}
	var r *coaxial.Runner
	var setupS []float64
	for i := 0; i < setups; i++ {
		r = nil // let the previous Runner's warm cache go before timing the next
		runtime.GC()
		f := speed()
		var s float64
		var err error
		if r, s, err = w.setup(ctx, o); err != nil {
			return nil, err
		}
		setupS = append(setupS, s*f)
	}

	var last outcome
	plain := func() float64 {
		start := cpuSeconds()
		out, err := w.window(ctx, r)
		d := cpuSeconds() - start
		check(rep.tally, out, err)
		last = out
		return d
	}
	if o.trace {
		if err := w.traced(ctx, o, r, plain, rep); err != nil {
			return nil, err
		}
	} else {
		p := timePhase(o.seconds, 1, plain)
		rep.note("host speed factor %.4f (median; 1 is the reference host)", median(p.speeds))
		instr := float64(last.instr)
		endToEndMetrics(rep, p, p.ops, instr/median(p.ops), instr*float64(len(p.ops)), median(setupS))
	}
	modelMetrics(rep, last.summary)
	ws := r.WarmStats()
	rep.set("coaxial.warm_captures", float64(ws.Captures))
	rep.set("coaxial.warm_entries", float64(ws.Entries))

	// One validated window, untimed: any harness violation fails it, and
	// its result must match the unvalidated ones (validation observes only).
	out, err := w.window(ctx, r.With(coaxial.WithValidation()))
	check(rep.tally, out, err)
	return rep, nil
}

// endToEndMetrics sets the metrics every workload reports from its timed
// phase. p.ops are the per-job seconds and windowOps the per-window seconds
// (the same samples for window workloads); simPerS is simulated
// instructions per host second and instr all instructions the phase
// simulated.
func endToEndMetrics(rep *report, p phase, windowOps []float64, simPerS, instr, setupS float64) {
	w50, ok := percentile(windowOps, 50)
	if !ok {
		rep.note("window_s_p50 rests on %d samples, fewer than %d beyond it", len(windowOps), minBeyond)
	}
	j50, ok50 := percentile(p.ops, 50)
	j90, ok90 := percentile(p.ops, 90)
	if !ok50 || !ok90 {
		rep.note("job_s percentiles rest on %d samples: p50 has %d beyond it, p90 fewer than %d", len(p.ops), len(p.ops)/2, minBeyond)
	}
	rep.set("sim_instr_per_s", simPerS)
	rep.set("window_s_p50", w50)
	rep.set("job_s_p50", j50)
	rep.set("job_s_p90", j90)
	rep.set("jobs_per_s", float64(len(p.ops))/p.elapsed)
	rep.set("setup_s", setupS)
	rep.set("heap_peak_mb", float64(p.heapPeak)/1e6)
	if instr > 0 {
		rep.set("allocs_per_minstr", float64(p.rt.allocObjs)/(instr/1e6))
	}
}

// modelMetrics sets the simulated (model) counts that explain which layer
// a workload stresses. They are deterministic and must not move under
// perf work.
func modelMetrics(rep *report, res coaxial.Result) {
	rep.set("cpu.ipc", res.IPC)
	rep.set("cpu.retired_instr", float64(res.Retired))
	rep.set("cache.llc_mpki", res.LLCMPKI)
	rep.set("cache.llc_miss_ratio", res.LLCMissRatio)
	if n := res.DRAM.RowHits + res.DRAM.RowMisses; n > 0 {
		rep.set("dram.row_hit_ratio", float64(res.DRAM.RowHits)/float64(n))
	}
	rep.set("dram.queue_ns", res.QueueNS)
	rep.set("dram.service_ns", res.ServiceNS)
	rep.set("dram.utilization", res.Utilization)
	rep.set("cxl.link_ns", res.CXLNS)
	rep.set("noc.onchip_ns", res.OnChipNS)
	rep.set("calm.fp_discarded", float64(res.FPDiscarded))
}

// runtimeMetrics sets the Go runtime's work over a traced phase, per
// operation (the p99 scheduling latency covers the whole phase).
func runtimeMetrics(rep *report, p phase) {
	n := float64(len(p.ops))
	rep.set("runtime.gc_cycles", float64(p.rt.gcCycles)/n)
	rep.set("runtime.gc_cpu_s", p.rt.gcCPU/n)
	rep.set("runtime.alloc_objects", float64(p.rt.allocObjs)/n)
	rep.set("runtime.alloc_bytes", float64(p.rt.allocBytes)/n)
	rep.set("runtime.sched_latency_p99_s", p.rt.schedP99)
}

// traced runs a --trace 1 phase that alternates untraced windows (plain)
// with traced ones, so host-speed drift and warm-up fall on both alike,
// and sets the per-layer metrics. Single hosts trace a self-driven,
// backend-decorated window; the rack traces Runner.RunRack through
// OnProgress stamps.
func (w *windowWorkload) traced(ctx context.Context, o options, r *coaxial.Runner, plain func() float64, rep *report) error {
	var op func() float64
	var finish func() error
	if w.rack != nil {
		op, finish = w.rackTracer(ctx, r, rep)
		if err := w.rackWarmCost(r.Config(), rep); err != nil {
			return err
		}
	} else {
		var err error
		if op, finish, err = w.hostTracer(r.Config(), rep); err != nil {
			return err
		}
	}
	calls := 0
	p := timePhase(o.seconds, 2, func() float64 {
		calls++
		if calls%2 == 1 {
			return plain()
		}
		return op()
	})
	if err := finish(); err != nil {
		return err
	}
	var plainOps, tracedOps []float64
	for i, d := range p.ops {
		if i%2 == 0 {
			plainOps = append(plainOps, d)
		} else {
			tracedOps = append(tracedOps, d)
		}
	}
	runtimeMetrics(rep, p)
	rep.set("trace_overhead_ratio", median(tracedOps)/median(plainOps)-1)
	mix := w.mix
	for _, m := range w.hostMix {
		mix = append(mix, m...)
	}
	rep.set("trace.ns_per_instr", traceCost(mix, o.seed))
	return nil
}

// progressStamp is one OnProgress observation with the host time it
// arrived.
type progressStamp struct {
	at time.Time
	p  coaxial.Progress
}

// rackTracer returns a traced rack window, which runs RunRack unchanged
// and stamps host time at each progress observation, and a finish that
// sets the rack metrics: simulated cycles per host second over the
// measure phase, and the last window's fairness and device queue tail.
func (w *windowWorkload) rackTracer(ctx context.Context, r *coaxial.Runner, rep *report) (op func() float64, finish func() error) {
	// The rack emits progress from the goroutine that called RunRack, so
	// the stamps need no locking. 64 covers a window's observations.
	stamps := make([]progressStamp, 0, 64)
	tr := r.With(coaxial.WithProgress(func(p coaxial.Progress) {
		stamps = append(stamps, progressStamp{time.Now(), p})
	}))
	var rates []float64
	var last outcome
	op = func() float64 {
		stamps = stamps[:0]
		start := cpuSeconds()
		out, err := w.window(ctx, tr)
		d := cpuSeconds() - start
		check(rep.tally, out, err)
		last = out
		if rate, ok := measureRate(stamps); ok {
			rates = append(rates, rate)
		}
		return d
	}
	finish = func() error {
		if last.rack == nil {
			return errors.New("no traced rack window completed")
		}
		rep.set("rack.measure_cycles_per_s", median(rates))
		rep.set("rack.jain_fairness", last.rack.FairnessIndex)
		var p99 float64
		for _, d := range last.rack.Devices {
			p99 = max(p99, d.QueueP99NS*clock.FreqGHz)
		}
		rep.set("rack.device_queue_p99_cycles", p99)
		return nil
	}
	return op, finish
}

// measureRate is simulated cycles per host second between the first and
// last measure-phase observations of one window.
func measureRate(stamps []progressStamp) (float64, bool) {
	var first, last *progressStamp
	for i := range stamps {
		if stamps[i].p.Phase != "measure" {
			continue
		}
		if first == nil {
			first = &stamps[i]
		}
		last = &stamps[i]
	}
	if first == nil || last == first {
		return 0, false
	}
	dt := last.at.Sub(first.at).Seconds()
	if dt <= 0 {
		return 0, false
	}
	return float64(last.p.Cycles-first.p.Cycles) / dt, true
}

// rackWarmCost times, outside the rack, what RunRack pays per host to build
// from warm state: each host's capture and its NewWarmSystem.
func (w *windowWorkload) rackWarmCost(rc coaxial.RunConfig, rep *report) error {
	var capture, build []float64
	for i := 0; i < 3; i++ {
		var c, b float64
		for h, hcfg := range w.rack.Hosts {
			hrc := rack.HostRunConfig(rc, *w.rack, h)
			hp := sim.HostParams{Index: h, AddrOffset: rack.HostAddrOffset(h)}
			hc, hb, _, err := warmCost(hcfg, w.hostMix[h], hrc, hp)
			if err != nil {
				return err
			}
			c += hc
			b += hb
		}
		capture = append(capture, c)
		build = append(build, b)
	}
	rep.set("sim.capture_warm_s", median(capture))
	rep.set("sim.new_system_s", median(build))
	return nil
}

// warmCost times one warm capture and one NewWarmSystem from it (with the
// host's private backends), returning the snapshot for reuse.
func warmCost(cfg coaxial.Config, mix []coaxial.Workload, rc coaxial.RunConfig, hp sim.HostParams) (capture, build float64, ws *sim.WarmState, err error) {
	start := time.Now()
	ws, ok, err := sim.CaptureWarmHost(cfg, mix, rc, hp)
	if err == nil && !ok {
		err = errors.New("workload generators cannot be cloned")
	}
	if err != nil {
		return 0, 0, nil, fmt.Errorf("capturing warm state: %w", err)
	}
	capture = time.Since(start).Seconds()
	start = time.Now()
	sys, err := sim.NewWarmSystem(cfg, ws, rc, hp)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("building warm system: %w", err)
	}
	build = time.Since(start).Seconds()
	sys.Close()
	return capture, build, ws, nil
}

// traceCost times each workload's synthetic instruction generator
// standalone, in host nanoseconds per generated instruction (median of
// three passes over the mix).
func traceCost(mix []coaxial.Workload, seed uint64) float64 {
	const perWorkload = 200_000
	var ins trace.Instr
	var passes []float64
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for i, wl := range mix {
			g := trace.NewSynthetic(wl.Params, uint64(i+1)<<40, seed*1_000_003+uint64(i)+1)
			for k := 0; k < perWorkload; k++ {
				g.Next(&ins)
			}
		}
		passes = append(passes, float64(time.Since(start).Nanoseconds())/float64(perWorkload*len(mix)))
	}
	return median(passes)
}
