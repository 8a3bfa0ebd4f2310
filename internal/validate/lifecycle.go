package validate

import (
	"fmt"
	"sort"

	"coaxial/internal/memreq"
)

// maxLifecycleErrors caps stored error strings; further failures are still
// counted.
const maxLifecycleErrors = 16

// Lifecycle tracks every memory request from issue to completion and
// checks the request-plumbing invariants: each request is issued exactly
// once and completes exactly once, read timestamps advance monotonically
// through the pipeline, the latency breakdown never exceeds the
// end-to-end latency, and nothing leaks at window end.
//
// The checker observes requests from its System's tick loop (send and
// Complete), which runs on one goroutine, so it needs no locking.
type Lifecycle struct {
	//lint:owns tracking keys only; entries are deleted on completion, never dereferenced after release
	reads map[*memreq.Request]struct{}
	//lint:owns tracking keys only; entries are deleted on completion, never dereferenced after release
	writes map[*memreq.Request]struct{}

	issuedReads    uint64
	issuedWrites   uint64
	completedReads uint64

	errs  []string
	nErrs int
}

// NewLifecycle returns an empty checker.
func NewLifecycle() *Lifecycle {
	return &Lifecycle{
		reads:  make(map[*memreq.Request]struct{}),
		writes: make(map[*memreq.Request]struct{}),
	}
}

func (l *Lifecycle) fail(format string, args ...any) {
	l.nErrs++
	if len(l.errs) >= maxLifecycleErrors {
		return
	}
	l.errs = append(l.errs, fmt.Sprintf(format, args...))
}

// Failf records an externally-detected invariant failure (e.g. a counter
// bound checked by the system wiring) so all findings surface through one
// report.
func (l *Lifecycle) Failf(format string, args ...any) {
	l.fail(format, args...)
}

// ErrorCount returns the total number of invariant failures (including
// any beyond the stored cap).
func (l *Lifecycle) ErrorCount() int { return l.nErrs }

// Errors returns the stored failure descriptions, oldest first.
func (l *Lifecycle) Errors() []string { return l.errs }

// Counts reports issued/completed tallies for tests.
func (l *Lifecycle) Counts() (issuedReads, issuedWrites, completedReads uint64) {
	return l.issuedReads, l.issuedWrites, l.completedReads
}

// OnIssue records a request entering the memory system at cycle `at`.
func (l *Lifecycle) OnIssue(r *memreq.Request, at int64) {
	if r == nil {
		l.fail("nil request issued at cycle %d", at)
		return
	}
	if at < r.Issue {
		l.fail("request %#x (core %d) issued at cycle %d before its Issue stamp %d",
			r.Addr, r.Core, at, r.Issue)
	}
	if r.Kind == memreq.Write {
		if _, dup := l.writes[r]; dup {
			l.fail("write %#x issued twice (cycle %d)", r.Addr, at)
			return
		}
		l.writes[r] = struct{}{}
		l.issuedWrites++
		return
	}
	if _, dup := l.reads[r]; dup {
		l.fail("read %#x (core %d) issued twice (cycle %d)", r.Addr, r.Core, at)
		return
	}
	l.reads[r] = struct{}{}
	l.issuedReads++
}

// OnComplete records a request's completion callback at cycle `now`. A
// read's timestamp monotonicity and latency breakdown are checked; a write
// (its data committed in DRAM) only releases its tracking.
func (l *Lifecycle) OnComplete(r *memreq.Request, now int64) {
	if r == nil {
		l.fail("nil request completed at cycle %d", now)
		return
	}
	if r.Kind == memreq.Write {
		if _, ok := l.writes[r]; !ok {
			l.fail("write %#x completed at cycle %d but was never issued (or completed twice)", r.Addr, now)
			return
		}
		delete(l.writes, r)
		return
	}
	if _, ok := l.reads[r]; !ok {
		l.fail("read %#x (core %d) completed at cycle %d but was never issued (or completed twice)",
			r.Addr, r.Core, now)
		return
	}
	delete(l.reads, r)
	l.completedReads++

	switch {
	case r.ArriveMC < r.Issue:
		l.fail("read %#x: arrived at the controller (cycle %d) before issue (cycle %d)",
			r.Addr, r.ArriveMC, r.Issue)
	case r.StartSvc < r.ArriveMC:
		l.fail("read %#x: negative queue delay (first command at %d, arrival at %d)",
			r.Addr, r.StartSvc, r.ArriveMC)
	case r.DataDone < r.StartSvc:
		l.fail("read %#x: negative service time (data done at %d, first command at %d)",
			r.Addr, r.DataDone, r.StartSvc)
	case now < r.DataDone:
		l.fail("read %#x: completed at cycle %d before its data burst finished at %d",
			r.Addr, now, r.DataDone)
	}
	if r.Spill < 0 {
		l.fail("read %#x: negative spill time %d", r.Addr, r.Spill)
	}
	if r.CXLTime < 0 {
		l.fail("read %#x: negative CXL time %d", r.Addr, r.CXLTime)
	}
	// Breakdown must never regress: the components sum to at most the
	// end-to-end latency (the remainder is the on-chip share, which must
	// therefore be non-negative).
	if total := now - r.Issue; total < r.QueueDelay()+r.ServiceTime()+r.Spill+r.CXLTime {
		l.fail("read %#x: breakdown exceeds total latency (total %d < queue %d + service %d + spill %d + cxl %d)",
			r.Addr, total, r.QueueDelay(), r.ServiceTime(), r.Spill, r.CXLTime)
	}
}

// InFlight reports the tracked in-flight read population: total, and the
// subset still holding an MSHR (CALM false positives are discarded early
// and release theirs before the memory response returns).
func (l *Lifecycle) InFlight() (reads, nonDiscard int) {
	reads = len(l.reads)
	for r := range l.reads {
		if !r.Discard {
			nonDiscard++
		}
	}
	return reads, nonDiscard
}

// CheckEnd reconciles the tracked population against the physical one at
// window end. walk must visit every request the memory system still owns
// (spill queues plus every backend's internal queues); mshrHeld is the sum
// of outstanding MSHR entries across cores. Every tracked request must be
// physically present exactly once and vice versa.
func (l *Lifecycle) CheckEnd(walk func(func(*memreq.Request)), mshrHeld int) {
	seenR := make(map[*memreq.Request]struct{}, len(l.reads))
	seenW := make(map[*memreq.Request]struct{}, len(l.writes))
	walk(func(r *memreq.Request) {
		if r == nil {
			l.fail("nil request found in a memory-system queue at window end")
			return
		}
		if r.Kind == memreq.Write {
			if _, ok := l.writes[r]; !ok {
				l.fail("untracked write %#x present in a memory-system queue at window end", r.Addr)
			}
			if _, dup := seenW[r]; dup {
				l.fail("write %#x present in two memory-system queues at once", r.Addr)
			}
			seenW[r] = struct{}{}
			return
		}
		if _, ok := l.reads[r]; !ok {
			l.fail("untracked read %#x (core %d) present in a memory-system queue at window end", r.Addr, r.Core)
		}
		if _, dup := seenR[r]; dup {
			l.fail("read %#x (core %d) present in two memory-system queues at once", r.Addr, r.Core)
		}
		seenR[r] = struct{}{}
	})
	// Collect leaks and report in a fixed order: the failure strings are part
	// of a run's reproducible output and must not depend on map iteration.
	// Requests tying on (Addr, Core) print identical lines (a write-back's
	// Core is -1, so a read never ties with one).
	var leaked []*memreq.Request
	for r := range l.reads {
		if _, ok := seenR[r]; !ok {
			leaked = append(leaked, r)
		}
	}
	for r := range l.writes {
		if _, ok := seenW[r]; !ok {
			leaked = append(leaked, r)
		}
	}
	sort.Slice(leaked, func(i, j int) bool {
		if leaked[i].Addr != leaked[j].Addr {
			return leaked[i].Addr < leaked[j].Addr
		}
		return leaked[i].Core < leaked[j].Core
	})
	for _, r := range leaked {
		if r.Kind == memreq.Write {
			l.fail("write %#x leaked: tracked in flight but absent from every memory-system queue", r.Addr)
			continue
		}
		l.fail("read %#x (core %d) leaked: tracked in flight but absent from every memory-system queue",
			r.Addr, r.Core)
	}
	if _, nonDiscard := l.InFlight(); nonDiscard != mshrHeld {
		l.fail("MSHR accounting mismatch at window end: %d non-discarded in-flight reads vs %d held MSHR entries",
			nonDiscard, mshrHeld)
	}
}
