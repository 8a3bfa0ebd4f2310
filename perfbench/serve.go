package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"coaxial"
	"coaxial/internal/serve"
	"coaxial/internal/sim"
)

// serveClients is both the number of closed-loop clients, each on one
// connection, and the server's worker count: at most two simulation
// goroutines and two client connections on a two-CPU host.
const serveClients = 2

// serveSweep drives an in-process coaxial-serve server over loopback HTTP.
// Its jobs are short windows over a fixed preset × workload grid, so the
// per-point path dominates (HTTP/JSON, the job store, single-flight, the
// warm-cache lookup, NewWarmSystem and cache cloning), not the tick loop.
type serveSweep struct {
	presets   []coaxial.TopologyPreset
	workloads []string
	win       windows
}

// serveWorkload's grid spans the DDR baseline and two CXL systems, and
// bandwidth-bound, graph, pointer-chasing and low-MPKI workloads.
func serveWorkload() *serveSweep {
	return &serveSweep{
		presets:   []coaxial.TopologyPreset{coaxial.TopologyDDRBaseline(), coaxial.TopologyCoaxial4x(), coaxial.TopologyCoaxialAsym()},
		workloads: []string{"stream-copy", "PageRank", "gcc", "canneal"},
		win:       windows{functional: 50_000, warmup: 1_000, measure: 5_000},
	}
}

// gridPoint is one preset × workload cell; its key labels its digest.
type gridPoint struct {
	preset   coaxial.TopologyPreset
	workload string
}

func (p gridPoint) key() string { return p.preset.Name + "/" + p.workload }

func (s *serveSweep) grid() []gridPoint {
	var g []gridPoint
	for _, p := range s.presets {
		for _, w := range s.workloads {
			g = append(g, gridPoint{p, w})
		}
	}
	return g
}

// timedEngine wraps the Runner engine to time each simulated point in the
// CPU seconds of the thread that runs it (a point simulates on the calling
// goroutine); it is the source of window_s_p50 and serve.engine_s_p50.
type timedEngine struct {
	inner *coaxial.Runner
	eng   serve.Engine
	mu    sync.Mutex
	ops   []engineOp //lint:guardedby mu
}

// engineOp is one simulated point: the thread CPU seconds it took and the
// wall time halfway through it.
type engineOp struct {
	cpu float64
	mid time.Time
}

func newTimedEngine(r *coaxial.Runner) *timedEngine {
	return &timedEngine{inner: r, eng: serve.NewRunnerEngine(r)}
}

func (e *timedEngine) RunPoint(ctx context.Context, p serve.Point, onProgress func(coaxial.Progress)) (serve.PointOutcome, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	wall, start := time.Now(), threadCPUSeconds()
	out, err := e.eng.RunPoint(ctx, p, onProgress)
	op := engineOp{cpu: threadCPUSeconds() - start}
	op.mid = wall.Add(time.Since(wall) / 2)
	e.mu.Lock()
	e.ops = append(e.ops, op)
	e.mu.Unlock()
	return out, err
}

// WarmStats keeps the warm-cache lines in the server's /metrics.
func (e *timedEngine) WarmStats() coaxial.WarmStats { return e.inner.WarmStats() }

// take returns and clears the points recorded so far.
func (e *timedEngine) take() []engineOp {
	e.mu.Lock()
	defer e.mu.Unlock()
	ops := e.ops
	e.ops = nil
	return ops
}

// liveServer is a serve.Server on a loopback listener.
type liveServer struct {
	srv    *serve.Server
	engine *timedEngine
	http   *http.Server
	base   string
	served chan error
}

func startServer(r *coaxial.Runner) (*liveServer, error) {
	engine := newTimedEngine(r)
	srv := serve.New(serve.Options{Workers: serveClients, QueueDepth: 2 * serveClients, Engine: engine, Clock: time.Now})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	ls := &liveServer{
		srv:    srv,
		engine: engine,
		http:   &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { ls.served <- ls.http.Serve(ln) }()
	return ls, nil
}

// stop closes the listener and connections, waits for the HTTP goroutine,
// then drains the server's workers.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	if e := <-ls.served; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	if e := ls.srv.Shutdown(ctx); err == nil {
		err = e
	}
	return err
}

// client is one closed-loop client on its own single connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base: base,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// errRejected marks a job the server refused with 429.
var errRejected = errors.New("job refused: queue full")

// jobRecord is one job as its client saw it.
type jobRecord struct {
	key       string
	mid       time.Time // halfway through the job
	total     float64   // POST sent until the terminal status arrived
	submit    float64   // POST round trip
	queueWait float64   // job created until a worker started it
	status    *serve.JobStatus
	err       error
}

// do submits req and waits on the job's stream for its terminal status.
func (c *client) do(key string, req serve.JobRequest) jobRecord {
	rec := jobRecord{key: key}
	body, err := json.Marshal(req)
	if err != nil {
		rec.err = err
		return rec
	}
	start := time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	var sub struct {
		Stream string `json:"stream_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	rec.submit = time.Since(start).Seconds()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		rec.err = errRejected
		return rec
	case resp.StatusCode != http.StatusAccepted:
		rec.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return rec
	case err != nil:
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	resp, err = c.http.Get(c.base + sub.Stream)
	if err != nil {
		rec.err = err
		return rec
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for rec.status == nil {
		var ev serve.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			rec.err = fmt.Errorf("stream: %w", err)
			return rec
		}
		if ev.Type == "end" {
			rec.status = ev.Job
		}
	}
	// Drain the chunked terminator so the connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	rec.total = time.Since(start).Seconds()
	rec.mid = start.Add(time.Since(start) / 2)
	if st := rec.status; st != nil && st.Started != nil {
		rec.queueWait = st.Started.Sub(st.Created).Seconds()
	}
	return rec
}

// results returns the job's point results, failing unless it is done with
// every point error-free.
func (rec jobRecord) results() ([]serve.PointResult, error) {
	if rec.err != nil {
		return nil, rec.err
	}
	st := rec.status
	if st == nil {
		return nil, errors.New("no terminal status")
	}
	if st.State != serve.StateDone {
		return nil, fmt.Errorf("job ended %s: %s", st.State, st.Error)
	}
	for _, pr := range st.Results {
		if pr.Error != "" {
			return nil, fmt.Errorf("point %s: %s", pr.Label, pr.Error)
		}
	}
	return st.Results, nil
}

// request builds a job over the named presets and workloads.
func (s *serveSweep) request(o options, kind string, presets, workloads []string, win windows) serve.JobRequest {
	q := serve.JobRequest{
		Kind: kind,
		Seed: o.seed,
		Windows: &serve.Windows{
			FunctionalWarmup: win.functional, Warmup: win.warmup, Measure: win.measure,
		},
	}
	if kind == "run" {
		q.Preset, q.Workload = presets[0], workloads[0]
	} else {
		q.Presets, q.Workloads = presets, workloads
	}
	return q
}

func (s *serveSweep) presetNames() []string {
	names := make([]string, len(s.presets))
	for i, p := range s.presets {
		names[i] = p.Name
	}
	return names
}

func (s *serveSweep) windows(o options) windows {
	if o.tiny {
		return tinyWindows
	}
	return s.win
}

// setup starts a server over a fresh Runner and pays every grid point's
// warm capture: each client submits a sweep over half the workloads with
// one-instruction windows, which share the timed jobs' warm keys.
func (s *serveSweep) setup(o options) (*liveServer, float64, error) {
	start := cpuSeconds()
	ls, err := startServer(coaxial.NewRunner())
	if err != nil {
		return nil, 0, err
	}
	win := s.windows(o)
	prime := windows{functional: win.functional, measure: 1}
	recs := make([]jobRecord, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		part := s.workloads[c*len(s.workloads)/serveClients : (c+1)*len(s.workloads)/serveClients]
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(ls.base)
			defer cl.close()
			recs[c] = cl.do("prime", s.request(o, "sweep", s.presetNames(), part, prime))
		}(c)
	}
	wg.Wait()
	for _, rec := range recs {
		if _, err := rec.results(); err != nil {
			ls.stop()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	ls.engine.take()
	return ls, cpuSeconds() - start, nil
}

// servePhase is one timed phase of both clients.
type servePhase struct {
	phase
	windowOps []float64 // engine seconds per simulated point
	instr     float64   // simulated instructions in the results clients received
	submit    []float64
	queueWait []float64
	rejected  int
	results   map[string]coaxial.Result // first result per grid point
}

// runPhase runs both clients closed-loop for seconds: each walks the grid
// in its own seeded order, one job at a time.
func (s *serveSweep) runPhase(o options, ls *liveServer, seconds float64, rep *report) servePhase {
	grid := s.grid()
	win := s.windows(o)
	per := make([][]jobRecord, serveClients)
	runtime.GC()
	hs := startHeapSampler()
	ss := startSpeedSampler()
	before := readRuntime()
	cpu0 := cpuSeconds()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(ls.base)
			defer cl.close()
			rng := newSplitMix(o.seed*0x9E3779B97F4A7C15 + uint64(c) + 1)
			order := make([]int, len(grid))
			for len(per[c]) == 0 || time.Now().Before(deadline) {
				rng.perm(order)
				for _, i := range order {
					pt := grid[i]
					per[c] = append(per[c], cl.do(pt.key(), s.request(o, "run", []string{pt.preset.Name}, []string{pt.workload}, win)))
					if !time.Now().Before(deadline) {
						break
					}
				}
			}
		}(c)
	}
	wg.Wait()
	sp := servePhase{results: make(map[string]coaxial.Result)}
	cpu := cpuSeconds() - cpu0
	sp.rt = before.to(readRuntime())
	sp.heapPeak = hs.finish()
	ss.finish()
	sp.speeds = ss.factor
	sp.elapsed = cpu * median(ss.factor)
	for _, op := range ls.engine.take() {
		sp.windowOps = append(sp.windowOps, op.cpu*ss.around(op.mid))
	}

	for _, jobs := range per {
		for _, rec := range jobs {
			if errors.Is(rec.err, errRejected) {
				sp.rejected++
			}
			prs, err := rec.results()
			if err == nil && len(prs) != 1 {
				err = fmt.Errorf("run job returned %d points", len(prs))
			}
			if err != nil {
				rep.tally.record(rec.key, "", err)
				continue
			}
			res := prs[0].Result
			d, err := digest(res)
			rep.tally.record(rec.key, d, err)
			f := ss.around(rec.mid)
			sp.ops = append(sp.ops, rec.total*f)
			sp.submit = append(sp.submit, rec.submit*f)
			sp.queueWait = append(sp.queueWait, rec.queueWait*f)
			sp.instr += float64(win.warmup*uint64(len(res.PerCoreIPC)) + res.Retired)
			if _, ok := sp.results[rec.key]; !ok {
				sp.results[rec.key] = res
			}
		}
	}
	return sp
}

func (s *serveSweep) run(o options) (*report, error) {
	rep := newReport(newTally(o.pins("serve_sweep")))
	setups := o.setups
	if o.trace {
		setups = 1
	}
	var ls *liveServer
	var setupS []float64
	for i := 0; i < setups; i++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, err
			}
			ls = nil
		}
		runtime.GC()
		f := speed()
		var d float64
		var err error
		if ls, d, err = s.setup(o); err != nil {
			return nil, err
		}
		setupS = append(setupS, d*f)
	}

	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	first := s.runPhase(o, ls, seconds, rep)
	if !o.trace {
		rep.note("host speed factor %.4f (median; 1 is the reference host)", median(first.speeds))
		endToEndMetrics(rep, first.phase, first.windowOps, first.instr/first.elapsed, first.instr, median(setupS))
	} else {
		metricsBefore, err := scrape(ls.base)
		if err != nil {
			return nil, err
		}
		second := s.runPhase(o, ls, seconds, rep)
		metricsAfter, err := scrape(ls.base)
		if err != nil {
			return nil, err
		}
		if err := s.layerMetrics(o, rep, second, metricsBefore, metricsAfter); err != nil {
			return nil, err
		}
		rep.set("trace_overhead_ratio", median(second.ops)/median(first.ops)-1)
	}

	// One validated job, untimed: its result must match the unvalidated
	// runs of the same point.
	pt := s.grid()[0]
	q := s.request(o, "run", []string{pt.preset.Name}, []string{pt.workload}, s.windows(o))
	q.Validate = true
	cl := newClient(ls.base)
	rec := cl.do(pt.key(), q)
	cl.close()
	if prs, err := rec.results(); err != nil {
		rep.tally.record(pt.key(), "", err)
	} else {
		d, err := digest(prs[0].Result)
		rep.tally.record(pt.key(), d, err)
	}
	if err := ls.stop(); err != nil {
		return nil, err
	}
	return rep, nil
}

// layerMetrics sets serve_sweep's per-layer metrics from the traced phase
// and /metrics scrapes taken around it.
func (s *serveSweep) layerMetrics(o options, rep *report, p servePhase, before, after map[string]float64) error {
	job50 := median(p.ops)
	engine50 := median(p.windowOps)
	rep.set("serve.submit_s_p50", median(p.submit))
	rep.set("serve.queue_wait_s_p50", median(p.queueWait))
	rep.set("serve.engine_s_p50", engine50)
	rep.set("serve.overhead_s_p50", job50-engine50)
	rep.set("serve.points_started", after["coaxial_serve_points_started_total"]-before["coaxial_serve_points_started_total"])
	rep.set("serve.points_coalesced", after["coaxial_serve_points_coalesced_total"]-before["coaxial_serve_points_coalesced_total"])
	rep.set("serve.rejected", float64(p.rejected))
	rep.set("coaxial.warm_captures", after["coaxial_serve_warm_captures_total"])
	rep.set("coaxial.warm_entries", after["coaxial_serve_warm_entries"])
	runtimeMetrics(rep, p.phase)

	// Warm-state costs and trace generation, timed standalone per point.
	var mix []coaxial.Workload
	seen := map[string]bool{}
	var capture, build []float64
	win := s.windows(o)
	rc := coaxial.DefaultRunConfig()
	rc.Seed = o.seed
	if rc.Seed == 0 {
		rc.Seed = coaxial.DefaultRunConfig().Seed
	}
	rc.FunctionalWarmupInstr, rc.WarmupInstr, rc.MeasureInstr = win.functional, win.warmup, win.measure
	var results []coaxial.Result
	for _, pt := range s.grid() {
		if res, ok := p.results[pt.key()]; ok {
			results = append(results, res)
		}
		cfg, _ := pt.preset.Single()
		w, err := coaxial.WorkloadByName(pt.workload)
		if err != nil {
			return err
		}
		if !seen[pt.workload] {
			seen[pt.workload] = true
			mix = append(mix, w)
		}
		wl := make([]coaxial.Workload, cfg.Cores)
		for i := range wl {
			wl[i] = w
		}
		c, b, _, err := warmCost(cfg, wl, rc, sim.HostParams{})
		if err != nil {
			return err
		}
		capture = append(capture, c)
		build = append(build, b)
	}
	rep.set("sim.capture_warm_s", median(capture))
	rep.set("sim.new_system_s", median(build))
	rep.set("trace.ns_per_instr", traceCost(mix, o.seed))
	modelMetrics(rep, meanResult(results))
	return nil
}

// meanResult averages the model counts modelMetrics reads over results.
func meanResult(results []coaxial.Result) coaxial.Result {
	var m coaxial.Result
	if len(results) == 0 {
		return m
	}
	n := float64(len(results))
	var retired, fp float64
	for _, r := range results {
		m.IPC += r.IPC / n
		m.LLCMPKI += r.LLCMPKI / n
		m.LLCMissRatio += r.LLCMissRatio / n
		m.QueueNS += r.QueueNS / n
		m.ServiceNS += r.ServiceNS / n
		m.Utilization += r.Utilization / n
		m.CXLNS += r.CXLNS / n
		m.OnChipNS += r.OnChipNS / n
		m.DRAM.RowHits += r.DRAM.RowHits
		m.DRAM.RowMisses += r.DRAM.RowMisses
		retired += float64(r.Retired) / n
		fp += float64(r.FPDiscarded) / n
	}
	m.Retired = uint64(retired + 0.5)
	m.FPDiscarded = uint64(fp + 0.5)
	return m
}

// scrape reads the server's Prometheus-style /metrics into a map.
func scrape(base string) (map[string]float64, error) {
	cl := newClient(base)
	defer cl.close()
	resp, err := cl.http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// splitMix is a small seeded generator for the clients' grid orders.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// perm fills order with a fresh permutation of its indices.
func (r *splitMix) perm(order []int) {
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
}
