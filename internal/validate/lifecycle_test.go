package validate

import (
	"strings"
	"testing"

	"coaxial/internal/memreq"
)

// cleanRead builds a read with a consistent timestamp pipeline.
func cleanRead(addr uint64) *memreq.Request {
	return &memreq.Request{
		Addr:     addr,
		Kind:     memreq.Read,
		Issue:    10,
		ArriveMC: 30,
		StartSvc: 50,
		DataDone: 120,
	}
}

func hasError(l *Lifecycle, substr string) bool {
	for _, e := range l.Errors() {
		if strings.Contains(e, substr) {
			return true
		}
	}
	return false
}

func TestLifecycleCleanPath(t *testing.T) {
	l := NewLifecycle()
	r := cleanRead(0x1000)
	w := &memreq.Request{Addr: 0x2000, Kind: memreq.Write, Issue: 10}
	l.OnIssue(r, 10)
	l.OnIssue(w, 10)
	l.OnComplete(r, 140)
	l.OnComplete(w, 200)
	if l.ErrorCount() != 0 {
		t.Fatalf("clean path produced %d errors: %v", l.ErrorCount(), l.Errors())
	}
	ir, iw, cr := l.Counts()
	if ir != 1 || iw != 1 || cr != 1 {
		t.Errorf("counts = %d/%d/%d, want 1/1/1", ir, iw, cr)
	}
	if reads, nd := l.InFlight(); reads != 0 || nd != 0 {
		t.Errorf("in-flight after drain = %d/%d, want 0/0", reads, nd)
	}
}

func TestLifecycleDoubleIssue(t *testing.T) {
	l := NewLifecycle()
	r := cleanRead(0x40)
	l.OnIssue(r, 10)
	l.OnIssue(r, 11)
	if !hasError(l, "issued twice") {
		t.Errorf("double issue not flagged: %v", l.Errors())
	}

	w := &memreq.Request{Addr: 0x80, Kind: memreq.Write, Issue: 5}
	l.OnIssue(w, 5)
	l.OnIssue(w, 6)
	if !hasError(l, "write 0x80 issued twice") {
		t.Errorf("double write issue not flagged: %v", l.Errors())
	}
}

func TestLifecycleDoubleComplete(t *testing.T) {
	l := NewLifecycle()
	r := cleanRead(0x40)
	l.OnIssue(r, 10)
	l.OnComplete(r, 140)
	l.OnComplete(r, 141)
	if !hasError(l, "never issued (or completed twice)") {
		t.Errorf("double completion not flagged: %v", l.Errors())
	}

	w := &memreq.Request{Addr: 0x80, Kind: memreq.Write, Issue: 5}
	l.OnIssue(w, 5)
	l.OnComplete(w, 60)
	l.OnComplete(w, 61)
	if !hasError(l, "write 0x80 completed at cycle 61 but was never issued (or completed twice)") {
		t.Errorf("double write completion not flagged: %v", l.Errors())
	}
	ghost := &memreq.Request{Addr: 0xc0, Kind: memreq.Write, Issue: 5}
	l.OnComplete(ghost, 60)
	if !hasError(l, "write 0xc0 completed at cycle 60 but was never issued") {
		t.Errorf("completion of an unissued write not flagged: %v", l.Errors())
	}
}

func TestLifecycleIssueBeforeStamp(t *testing.T) {
	l := NewLifecycle()
	r := cleanRead(0x40) // Issue stamp 10
	l.OnIssue(r, 9)
	if !hasError(l, "before its Issue stamp") {
		t.Errorf("early issue not flagged: %v", l.Errors())
	}
}

func TestLifecycleTimestampMonotonicity(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*memreq.Request)
		at     int64
		substr string
	}{
		{"arrive-before-issue", func(r *memreq.Request) { r.ArriveMC = 5 }, 140, "before issue"},
		{"negative-queue", func(r *memreq.Request) { r.StartSvc = 20 }, 140, "negative queue delay"},
		{"negative-service", func(r *memreq.Request) { r.DataDone = 40 }, 140, "negative service time"},
		{"complete-before-data", func(r *memreq.Request) {}, 100, "before its data burst finished"},
		{"negative-spill", func(r *memreq.Request) { r.Spill = -1 }, 140, "negative spill"},
		{"negative-cxl", func(r *memreq.Request) { r.CXLTime = -1 }, 140, "negative CXL time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLifecycle()
			r := cleanRead(0x40)
			tc.mutate(r)
			l.OnIssue(r, r.Issue)
			l.OnComplete(r, tc.at)
			if !hasError(l, tc.substr) {
				t.Errorf("want error containing %q, got %v", tc.substr, l.Errors())
			}
		})
	}
}

func TestLifecycleBreakdownRegression(t *testing.T) {
	l := NewLifecycle()
	r := cleanRead(0x40)
	// Queue 20 + service 70 + spill 50 = 140 > total 130.
	r.Spill = 50
	l.OnIssue(r, 10)
	l.OnComplete(r, 140)
	if !hasError(l, "breakdown exceeds total latency") {
		t.Errorf("breakdown regression not flagged: %v", l.Errors())
	}
}

func TestLifecycleLeakDetection(t *testing.T) {
	l := NewLifecycle()
	r := cleanRead(0x40)
	l.OnIssue(r, 10)
	// Window ends; the memory system claims to hold nothing.
	l.CheckEnd(func(func(*memreq.Request)) {}, 0)
	if !hasError(l, "leaked") {
		t.Errorf("leaked read not flagged: %v", l.Errors())
	}
	if !hasError(l, "MSHR accounting mismatch") {
		t.Errorf("MSHR mismatch not flagged alongside the leak: %v", l.Errors())
	}
}

func TestLifecycleUntrackedAndDuplicatePresence(t *testing.T) {
	l := NewLifecycle()
	tracked := cleanRead(0x40)
	ghost := cleanRead(0x80)
	l.OnIssue(tracked, 10)
	l.CheckEnd(func(fn func(*memreq.Request)) {
		fn(tracked)
		fn(tracked) // same request in two queues
		fn(ghost)   // never issued
	}, 1)
	if !hasError(l, "present in two memory-system queues") {
		t.Errorf("duplicate presence not flagged: %v", l.Errors())
	}
	if !hasError(l, "untracked read") {
		t.Errorf("untracked read not flagged: %v", l.Errors())
	}
}

func TestLifecycleMSHRMismatch(t *testing.T) {
	l := NewLifecycle()
	a, b := cleanRead(0x40), cleanRead(0x80)
	l.OnIssue(a, 10)
	l.OnIssue(b, 10)
	l.CheckEnd(func(fn func(*memreq.Request)) { fn(a); fn(b) }, 1)
	if !hasError(l, "MSHR accounting mismatch") {
		t.Errorf("MSHR mismatch not flagged: %v", l.Errors())
	}
}

func TestLifecycleDiscardedReadsReleaseMSHR(t *testing.T) {
	l := NewLifecycle()
	a, b := cleanRead(0x40), cleanRead(0x80)
	b.Discard = true // CALM false positive: MSHR released early
	l.OnIssue(a, 10)
	l.OnIssue(b, 10)
	l.CheckEnd(func(fn func(*memreq.Request)) { fn(a); fn(b) }, 1)
	if l.ErrorCount() != 0 {
		t.Errorf("discarded read should not count toward MSHR holds: %v", l.Errors())
	}
}

// Every write completes through its requester, so a tracked write that no
// queue holds at window end was lost.
func TestLifecycleWriteLeakCaught(t *testing.T) {
	l := NewLifecycle()
	done := &memreq.Request{Addr: 0x2000, Kind: memreq.Write, Core: -1, Issue: 10}
	lost := &memreq.Request{Addr: 0x3000, Kind: memreq.Write, Core: -1, Issue: 10}
	l.OnIssue(done, 10)
	l.OnIssue(lost, 10)
	l.OnComplete(done, 200)
	// Window ends; the memory system claims to hold nothing.
	l.CheckEnd(func(func(*memreq.Request)) {}, 0)
	if l.ErrorCount() != 1 || !hasError(l, "write 0x3000 leaked") {
		t.Errorf("want only the lost write flagged, got %d: %v", l.ErrorCount(), l.Errors())
	}
}

func TestLifecycleErrorCapStillCounts(t *testing.T) {
	l := NewLifecycle()
	for i := 0; i < maxLifecycleErrors+10; i++ {
		l.Failf("synthetic failure %d", i)
	}
	if l.ErrorCount() != maxLifecycleErrors+10 {
		t.Errorf("count = %d, want %d", l.ErrorCount(), maxLifecycleErrors+10)
	}
	if len(l.Errors()) != maxLifecycleErrors {
		t.Errorf("stored = %d, want cap %d", len(l.Errors()), maxLifecycleErrors)
	}
}
