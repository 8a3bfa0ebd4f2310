package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// minBeyond is how many samples must lie above a reported percentile for
// it to count as measured (a median needs 20 samples, a p90 needs 100).
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, and whether at least minBeyond samples lie beyond it.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// median is the nearest-rank 50th percentile, for per-layer figures that
// need no sample-count rule.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 50)
	return v
}

// digest fingerprints a simulation result by its JSON encoding. Results
// are deterministic, so equal inputs give equal digests on every commit
// that leaves simulated behaviour unchanged.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// tally counts attempted and failed operations and checks each result
// digest against a reference per key: the pinned digest at the default
// seed, otherwise the first digest the run saw for that key.
type tally struct {
	attempted, failed int
	pins              map[string]string // nil away from the default seed
	refs              map[string]string
	errs              []string
}

func newTally(pins map[string]string) *tally {
	return &tally{pins: pins, refs: make(map[string]string)}
}

// record books one operation: it fails when err is set or when its
// digest differs from the key's reference.
func (t *tally) record(key, d string, err error) {
	t.attempted++
	if err != nil {
		t.fail("%s: %v", key, err)
		return
	}
	ref, ok := t.refs[key]
	if !ok {
		ref = d
		if t.pins != nil {
			ref = t.pins[key]
		}
		t.refs[key] = ref
	}
	if d != ref {
		t.fail("%s: result digest %s, want %s", key, d, ref)
	}
}

// fail books a failed operation that produced no result to check.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// runtimeSnap is a reading of the Go runtime counters the benchmark
// reports as deltas over a timed phase.
type runtimeSnap struct {
	gcCycles   uint64
	gcCPU      float64
	allocObjs  uint64
	allocBytes uint64
	sched      *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSnap{
		gcCycles:   s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		allocObjs:  s[2].Value.Uint64(),
		allocBytes: s[3].Value.Uint64(),
		sched:      s[4].Value.Float64Histogram(),
	}
}

// runtimeDelta is the runtime's work over one timed phase.
type runtimeDelta struct {
	gcCycles   uint64
	gcCPU      float64
	allocObjs  uint64
	allocBytes uint64
	schedP99   float64 // seconds a goroutine waited to run, 99th percentile
}

func (a runtimeSnap) to(b runtimeSnap) runtimeDelta {
	return runtimeDelta{
		gcCycles:   b.gcCycles - a.gcCycles,
		gcCPU:      b.gcCPU - a.gcCPU,
		allocObjs:  b.allocObjs - a.allocObjs,
		allocBytes: b.allocBytes - a.allocBytes,
		schedP99:   histP99(a.sched, b.sched),
	}
}

// histP99 returns the upper edge of the bucket holding the 99th percentile
// of the events recorded between two readings of one histogram.
func histP99(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= want {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}

// heapSampler polls the Go heap in use from its own goroutine and keeps
// the peak, so the timed phase's high-water mark is seen between GCs.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

// heapSampleEvery is the polling period: short against a window, long
// enough that the sampler costs nothing measurable.
const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go h.loop()
	return h
}

func (h *heapSampler) loop() {
	defer close(h.done)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the sampler, waits for it, and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// cpuSeconds is the process's CPU time (user plus system, all threads).
// Window workloads time their operations in CPU seconds: on a shared VM
// the hypervisor's steal inflates wall time by tens of percent from run to
// run, and CPU time excludes it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// threadCPUSeconds is the calling OS thread's CPU time; the caller locks
// its goroutine to the thread around the span it measures.
func threadCPUSeconds() float64 {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock id and buffer cannot fail
	}
	return float64(ts.Nano()) / 1e9
}

// refCalibrationS is calibrate's CPU time on the reference host, a 2-CPU
// cloud VM (Intel Xeon, 2.0 GHz). Rescaled times read as CPU seconds on
// that host.
const refCalibrationS = 0.0225

var calibrationSink uint64

// calibrationIters is the loop length refCalibrationS was taken at.
const calibrationIters = 3_000_000

// calibrate runs iters steps of a fixed integer loop, L1-resident and
// branchy, that shares no code with the repository, and returns the
// calling thread's CPU seconds for it (the caller keeps the goroutine on
// one thread). On a shared VM the host's speed drifts by 10-30% over tens
// of seconds with other tenants' load; timed next to an operation, this
// loop drifts with it, and nothing a change to the simulator does can
// move it.
func calibrate(iters int) float64 {
	start := threadCPUSeconds()
	x := uint64(1)
	var sum uint64
	var table [256]uint64
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & 255
		if x&1 == 0 {
			sum += table[k]
		} else {
			table[k] += sum ^ x
		}
	}
	calibrationSink += sum
	return threadCPUSeconds() - start
}

// speed is the factor that rescales a CPU time measured right after it to
// the reference host.
func speed() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	return refCalibrationS / calibrate(calibrationIters)
}

// speedSampler times a short calibration every speedSampleEvery on its own
// goroutine, so operations that overlap on several goroutines can each be
// rescaled by the factors taken while they ran.
type speedSampler struct {
	stop, done chan struct{}
	mu         sync.Mutex
	at         []time.Time //lint:guardedby mu
	factor     []float64   //lint:guardedby mu
}

// speedSampleEvery spaces the samples: a tenth of the full loop every
// 100 ms costs about 2% of one CPU.
const speedSampleEvery = 100 * time.Millisecond

func startSpeedSampler() *speedSampler {
	s := &speedSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *speedSampler) loop() {
	defer close(s.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(speedSampleEvery)
	defer tick.Stop()
	for {
		f := refCalibrationS / (10 * calibrate(calibrationIters/10))
		s.mu.Lock()
		s.at = append(s.at, time.Now())
		s.factor = append(s.factor, f)
		s.mu.Unlock()
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the sampler and waits for it.
func (s *speedSampler) finish() {
	close(s.stop)
	<-s.done
}

// around is the median factor sampled within a second of t (all samples
// when none is that close). Call after finish.
func (s *speedSampler) around(t time.Time) float64 {
	var near []float64
	for i, at := range s.at {
		if d := at.Sub(t); d > -time.Second && d < time.Second {
			near = append(near, s.factor[i])
		}
	}
	if len(near) == 0 {
		return median(s.factor)
	}
	return median(near)
}

// phase is one timed phase: the rescaled seconds of each operation, their
// sum, the speed factors applied, and what the Go runtime did meanwhile.
type phase struct {
	ops      []float64
	elapsed  float64
	speeds   []float64
	rt       runtimeDelta
	heapPeak uint64
}

// timePhase calls op back to back until seconds of wall time have passed
// and it has run at least minOps times. op returns the CPU seconds of the
// part it wants timed, so result checking stays outside the samples; each
// is rescaled by a speed factor taken right before it.
func timePhase(seconds float64, minOps int, op func() float64) phase {
	runtime.GC()
	hs := startHeapSampler()
	before := readRuntime()
	start := time.Now()
	var p phase
	for len(p.ops) < minOps || time.Since(start).Seconds() < seconds {
		f := speed()
		d := op() * f
		p.speeds = append(p.speeds, f)
		p.ops = append(p.ops, d)
		p.elapsed += d
	}
	p.rt = before.to(readRuntime())
	p.heapPeak = hs.finish()
	return p
}
