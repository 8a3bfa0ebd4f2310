// Package cpu implements the simplified out-of-order core model: a
// reorder-buffer-windowed, 4-wide fetch/retire engine whose memory-level
// parallelism is bounded by MSHRs and by explicit load-load dependencies in
// the instruction stream (pointer chases). It reproduces the IPC-limiting
// behaviour of the paper's ChampSim cores (4-wide, 256-entry ROB) without
// modelling individual functional units.
package cpu

import (
	"math"

	"coaxial/internal/memreq"
	"coaxial/internal/trace"
)

// PathResult is the hierarchy's answer to one first-touch memory access.
type PathResult struct {
	// When is the completion cycle when Async is false.
	When int64
	// Async means the access went to memory; completion arrives through
	// Core.ResolveMiss.
	Async bool
}

// Hierarchy is implemented by the system model (internal/sim): it performs
// the cache/NoC/memory path for a first access to a line and either
// returns a synchronous completion time (a cache hit at some level) or
// registers an in-flight memory access.
type Hierarchy interface {
	Access(core int, addr, pc uint64, store bool, now int64) PathResult
}

const (
	robSize = 256
	width   = 4
)

// robEntry is one in-flight instruction.
type robEntry struct {
	doneAt int64
	ready  bool // completion time known
}

// missSlot is one occupied MSHR, stored flat (no per-miss heap entry): the
// line address, the dirty flag (a store merged into the miss: fill dirty,
// RFO), and the ROB sequence numbers of loads waiting on the fill. The MSHR
// file is a flat array scanned linearly — at most `mshrs` (typically 16)
// slots, which beats a map on every hot query (dispatch's budget check,
// merge lookups, fills) — and the flat layout keeps those scans on one
// cache line instead of chasing a pointer per slot.
type missSlot struct {
	line    uint64
	dirty   bool
	waiters []uint64
}

// deferred is a dependent load whose issue waits on a producer load.
type deferred struct {
	seq      uint64
	producer uint64
	addr     uint64
	pc       uint64
	store    bool
}

// Stats counts core activity over the measurement window.
type Stats struct {
	Retired uint64
	Loads   uint64
	Stores  uint64
	// StallMSHR counts dispatch stalls due to MSHR exhaustion.
	StallMSHR uint64
}

// Core is one simulated out-of-order core.
type Core struct {
	ID int

	gen   trace.Generator
	hier  Hierarchy
	mshrs int

	// Dispatch-rate cap (token bucket): tokens accrue at ipcCap per cycle
	// and each dispatched instruction consumes one, modelling the
	// workload's inherent ILP limit. The balance is kept in closed form —
	// tokens(n) = min(width, tokenBase + (n-tokenBaseCycle)*ipcCap) — and
	// rebased only when dispatch consumes tokens, so the accrual arithmetic
	// is identical whatever cycles the core is actually ticked at (the
	// event-driven loop skips inert cycles; see NextEvent).
	ipcCap         float64
	tokenBase      float64
	tokenBaseCycle int64 //lint:unit cycles
	// tokenReadyAt memoizes the first cycle the accrual banks a full token
	// (a pure function of the rebase state above); -1 = recompute.
	tokenReadyAt int64 //lint:unit cycles

	rob          [robSize]robEntry
	headSeq      uint64 // oldest un-retired sequence number
	tailSeq      uint64 // next sequence number to allocate
	lastLoadSeq  uint64 // most recent load, for dependency chaining
	haveLastLoad bool
	// Pointer chases serialize on the previous *dependent* load, forming
	// a[i] -> a[a[i]] chains rather than chaining to (usually L1-hit)
	// unrelated recent loads.
	lastDepSeq uint64
	haveDep    bool

	pending []missSlot // occupied MSHRs (unordered; len <= mshrs)
	// freeWaiters recycles waiter-slice backing arrays: every beyond-L2
	// access parks in an MSHR until the cycle barrier resolves it, so
	// slice churn would otherwise be per-access, not per-miss.
	freeWaiters [][]uint64
	defq        []deferred

	// One fetched-but-undispatched instruction (held across stalls).
	held    trace.Instr
	hasHeld bool

	// frozen parks the core for sampled fast-forward: Tick only advances
	// the clock and NextEvent reports no events, so the memory system can
	// drain in-flight work without the core dispatching or retiring.
	frozen bool

	// Event-driven clocking state: lastTick is the last cycle Tick ran;
	// the skip* fields, latched by NextEvent, describe the per-cycle
	// counter effects of the provably-inert cycles between ticks so that
	// Tick's catch-up reproduces them exactly (see NextEvent).
	lastTick int64
	// skipStallDefer is the number of deferred accesses that are
	// MSHR-blocked with a completed producer; each adds one StallMSHR per
	// skipped cycle (issueDeferred retries them every cycle).
	skipStallDefer int
	// skipDispatchStallFrom is the first cycle from which a held,
	// MSHR-blocked memory instruction adds one StallMSHR per skipped cycle
	// (once the token bucket reaches a full token); MaxInt64 when N/A.
	skipDispatchStallFrom int64

	stats Stats

	// Measurement bookkeeping.
	target          uint64 // retired-instruction target for this phase
	FinishCycle     int64  // cycle the target was reached (-1 while running)
	retiredAtFinish uint64 // snapshot of Retired at FinishCycle
	measureStart    int64
}

// New builds a core. mshrs bounds outstanding memory-line misses; ipcCap
// bounds the average dispatch rate (<= 0 means the full machine width).
func New(id int, gen trace.Generator, hier Hierarchy, mshrs int, ipcCap float64) *Core {
	if mshrs < 1 {
		mshrs = 16
	}
	if ipcCap <= 0 || ipcCap > width {
		ipcCap = width
	}
	return &Core{
		ID:                    id,
		gen:                   gen,
		hier:                  hier,
		mshrs:                 mshrs,
		ipcCap:                ipcCap,
		tokenReadyAt:          -1,
		pending:               make([]missSlot, 0, mshrs),
		FinishCycle:           -1,
		skipDispatchStallFrom: math.MaxInt64,
	}
}

// SetTarget arms the retirement target; FinishCycle records when the
// core's retired count (since the last ResetStats) reaches it.
func (c *Core) SetTarget(instr uint64) {
	c.target = instr
	c.FinishCycle = -1
}

// Done reports whether the retirement target has been reached.
func (c *Core) Done() bool { return c.FinishCycle >= 0 }

// Stats returns the activity counters.
func (c *Core) Stats() Stats { return c.stats }

// ResetStats zeroes counters at the warmup/measure boundary.
func (c *Core) ResetStats(now int64) {
	c.stats = Stats{}
	c.measureStart = now
	c.FinishCycle = -1
}

// IPC returns retired instructions per cycle since the last reset. Once
// the retirement target has been reached, the rate freezes at that point:
// the core keeps executing (to sustain memory pressure for slower cores)
// but the extra retirement must not inflate its measured IPC.
func (c *Core) IPC(now int64) float64 {
	end, retired := now, c.stats.Retired
	if c.FinishCycle >= 0 {
		end, retired = c.FinishCycle, c.retiredAtFinish
	}
	span := end - c.measureStart
	if span <= 0 {
		return 0
	}
	return float64(retired) / float64(span)
}

// robAt returns the entry for a sequence number.
func (c *Core) robAt(seq uint64) *robEntry { return &c.rob[seq%robSize] }

// producerDone reports whether the producer load of a dependency has
// completed by cycle now. A retired producer has necessarily completed.
func (c *Core) producerDone(producer uint64, now int64) bool {
	if producer < c.headSeq {
		return true
	}
	e := c.robAt(producer)
	return e.ready && e.doneAt <= now
}

// Tick advances the core one cycle: resolve deferred issues, retire, and
// dispatch. Cycles skipped since the previous Tick (the event-driven loop
// only ticks the core at cycles NextEvent reported) are caught up first;
// re-ticking an already-simulated cycle is a no-op.
func (c *Core) Tick(now int64) {
	if now <= c.lastTick {
		return
	}
	if c.frozen {
		c.lastTick = now
		return
	}
	if now-c.lastTick > 1 {
		c.catchUp(now)
	}
	c.lastTick = now
	c.issueDeferred(now)
	c.retire(now)
	c.dispatch(now)
}

// Sync realizes the per-cycle accounting of the inert cycles up to and
// including now without simulating any of them: the catch-up a Tick at
// now+1 would run, so a later Tick resumes from now. Unlike Tick it never
// issues, retires, or dispatches, so it is safe after cycle now's
// completions have already changed the core's state — a completion that
// frees an MSHR at now first lets the core dispatch at now+1, as in the
// cycle-by-cycle loop, where the core ticked at now before the completion
// arrived. Idempotent at an already-synced cycle.
func (c *Core) Sync(now int64) {
	if now <= c.lastTick {
		return
	}
	if !c.frozen {
		c.catchUp(now + 1)
	}
	c.lastTick = now
}

// catchUp applies the per-cycle effects of the inert cycles in
// (lastTick, now) exactly as the cycle-by-cycle loop would have: MSHR-stall
// counters advance for accesses that would have retried and stalled every
// cycle. (Token accrual needs no catch-up: the closed-form bucket is a
// function of the cycle number, not of how often Tick ran.) The skip*
// fields were latched by NextEvent when the skip began; the core's
// architectural state is unchanged over the window by construction
// (otherwise NextEvent would have scheduled an earlier tick).
func (c *Core) catchUp(now int64) {
	skipped := now - c.lastTick - 1
	c.stats.StallMSHR += uint64(c.skipStallDefer) * uint64(skipped)
	if from := c.skipDispatchStallFrom; from < now {
		lo := c.lastTick + 1
		if from > lo {
			lo = from
		}
		// One dispatch stall per cycle in [lo, now-1]; the tick at `now`
		// counts its own.
		if n := now - lo; n > 0 {
			c.stats.StallMSHR += uint64(n)
		}
	}
}

// NextEvent returns the earliest cycle after `now` at which Tick could
// change core state beyond token-bucket accrual and MSHR-stall counting
// (which Tick's catch-up reproduces in bulk), or math.MaxInt64 when the
// core is fully blocked waiting for a memory response (ResolveMiss). The
// returned bound is conservative: an earlier tick is always harmless, a
// later one never happens. Must be called right after Tick(now); it also
// latches the per-skipped-cycle stall accounting used by catchUp.
func (c *Core) NextEvent(now int64) int64 {
	next := int64(math.MaxInt64)
	c.skipStallDefer = 0
	c.skipDispatchStallFrom = math.MaxInt64
	if c.frozen {
		return next
	}

	// Retirement: the ROB head's completion unblocks retire (and, the same
	// cycle, dispatch if the ROB is full). A head already complete means
	// this tick retired a full width and more are ready: next cycle.
	if c.headSeq < c.tailSeq {
		if e := c.robAt(c.headSeq); e.ready {
			t := e.doneAt
			if t <= now {
				t = now + 1
			}
			if t < next {
				next = t
			}
		}
	}

	// Deferred accesses: issue when their producer completes. An entry
	// whose producer is already done survived this tick's issue pass; if it
	// is still MSHR-blocked it retries (and counts a stall) every cycle
	// until an external fill frees an MSHR. An MSHR may however have been
	// freed *after* the issue pass — the cycle barrier resolves same-cycle
	// LLC hits between Tick and NextEvent — so re-check before latching the
	// per-skipped-cycle stall.
	for i := range c.defq {
		d := &c.defq[i]
		if c.producerDone(d.producer, now) {
			line := memreq.LineAddr(d.addr)
			if c.findMiss(line) >= 0 || len(c.pending) < c.mshrs {
				if now+1 < next {
					next = now + 1
				}
			} else {
				c.skipStallDefer++
			}
			continue
		}
		if e := c.robAt(d.producer); e.ready && e.doneAt < math.MaxInt64 {
			t := e.doneAt
			if t <= now {
				t = now + 1
			}
			if t < next {
				next = t
			}
		}
	}

	// Dispatch: the next cycle the token bucket holds a full token, the
	// core processes an instruction — unless the ROB is full (covered by
	// the retirement candidate: dispatch resumes the cycle the head
	// retires) or the held memory instruction is MSHR-blocked (external
	// wait, stalling every token-ready cycle).
	if c.tailSeq-c.headSeq < robSize {
		t := c.nextDispatchCycle(now)
		blocked := false
		if c.hasHeld && c.held.IsMem {
			line := memreq.LineAddr(c.held.Addr)
			producer, have := c.lastDepSeq, c.haveDep
			if !have {
				producer, have = c.lastLoadSeq, c.haveLastLoad
			}
			// A dependent access with an incomplete producer defers
			// (a state change) instead of stalling; only a
			// straight-line MSHR miss blocks dispatch outright.
			defers := c.held.Dependent && have && !c.producerDone(producer, t)
			if c.findMiss(line) < 0 && len(c.pending) >= c.mshrs && !defers {
				blocked = true
				c.skipDispatchStallFrom = t
			}
		}
		if !blocked && t < next {
			next = t
		}
	}
	return next
}

// tokensAt evaluates the closed-form token balance at cycle now. It is a
// pure function of (tokenBase, tokenBaseCycle, now), so event-driven and
// cycle-by-cycle clocking compute bit-identical balances regardless of
// which cycles the core was actually ticked at.
func (c *Core) tokensAt(now int64) float64 {
	t := c.tokenBase + float64(now-c.tokenBaseCycle)*c.ipcCap
	if t > width { // bucket depth: at most one full-width burst
		t = width
	}
	return t
}

// nextDispatchCycle returns the first cycle after now whose closed-form
// accrual reaches a full token. The threshold depends only on the rebase
// state, so it is computed once per token consumption and memoized.
func (c *Core) nextDispatchCycle(now int64) int64 {
	if c.tokenReadyAt < 0 {
		c.tokenReadyAt = c.computeTokenReady()
	}
	if c.tokenReadyAt <= now {
		return now + 1
	}
	return c.tokenReadyAt
}

// computeTokenReady locates the first cycle the accrual banks a full
// token. The division lands within one cycle of the answer; the correction
// loops pin it to the exact cycle tokensAt reports, so the bound agrees
// bit-for-bit with dispatch's own check.
func (c *Core) computeTokenReady() int64 {
	need := 1 - c.tokenBase
	if need <= 0 {
		return c.tokenBaseCycle // a full token is already banked
	}
	x := c.tokenBaseCycle + int64(math.Ceil(need/c.ipcCap))
	for x > c.tokenBaseCycle && c.tokensAt(x-1) >= 1 {
		x--
	}
	for c.tokensAt(x) < 1 {
		x++
	}
	return x
}

func (c *Core) issueDeferred(now int64) {
	// Issue in order; stop at the first MSHR stall to preserve the chain.
	n := 0
	for _, d := range c.defq {
		if !c.producerDone(d.producer, now) {
			c.defq[n] = d
			n++
			continue
		}
		if !c.tryIssueMem(d.seq, d.addr, d.pc, d.store, now) {
			c.stats.StallMSHR++
			c.defq[n] = d
			n++
			continue
		}
	}
	c.defq = c.defq[:n]
}

func (c *Core) retire(now int64) {
	for i := 0; i < width && c.headSeq < c.tailSeq; i++ {
		e := c.robAt(c.headSeq)
		if !e.ready || e.doneAt > now {
			return
		}
		c.headSeq++
		c.stats.Retired++
		if c.FinishCycle < 0 && c.target > 0 && c.stats.Retired >= c.target {
			c.FinishCycle = now
			c.retiredAtFinish = c.stats.Retired
		}
	}
}

func (c *Core) dispatch(now int64) {
	tokens, spent := c.dispatchLoop(now, c.tokensAt(now))
	// Rebase the closed form only when tokens were consumed: the accrual
	// expression then stays anchored at the same (base, cycle) pair in
	// both clocking modes, so float rounding cannot diverge between them.
	if spent {
		c.tokenBase = tokens
		c.tokenBaseCycle = now
		c.tokenReadyAt = -1
	}
}

// dispatchLoop processes up to `width` instructions and returns the
// remaining token balance plus whether any were consumed. Split from
// dispatch so the early returns (ILP limit, ROB full, structural stall)
// need no deferred rebase closure on the per-cycle path.
func (c *Core) dispatchLoop(now int64, tokens float64) (float64, bool) {
	spent := false
	for i := 0; i < width; i++ {
		if tokens < 1 {
			return tokens, spent // ILP limit this cycle
		}
		if c.tailSeq-c.headSeq >= robSize {
			return tokens, spent // ROB full
		}
		if !c.hasHeld {
			c.gen.Next(&c.held)
			c.hasHeld = true
		}
		ins := &c.held

		if !ins.IsMem {
			seq := c.alloc()
			e := c.robAt(seq)
			lat := int64(ins.ExecLat)
			if lat < 1 {
				lat = 1
			}
			e.ready = true
			e.doneAt = now + lat
			tokens--
			spent = true
			c.hasHeld = false
			continue
		}

		// Memory instruction.
		line := memreq.LineAddr(ins.Addr)
		producer, haveProducer := c.lastDepSeq, c.haveDep
		if !haveProducer {
			producer, haveProducer = c.lastLoadSeq, c.haveLastLoad
		}
		if ins.Dependent && haveProducer && !c.producerDone(producer, now) {
			// Allocate the ROB slot; defer the access until the producer
			// completes.
			seq := c.alloc()
			e := c.robAt(seq)
			if ins.IsStore {
				// Stores retire through the store buffer regardless.
				e.ready = true
				e.doneAt = now + 1
				c.stats.Stores++
			} else {
				e.ready = false
				e.doneAt = math.MaxInt64
				c.stats.Loads++
			}
			c.defq = append(c.defq, deferred{
				seq: seq, producer: producer,
				addr: ins.Addr, pc: ins.PC, store: ins.IsStore,
			})
			if !ins.IsStore {
				c.lastLoadSeq = seq
				c.haveLastLoad = true
				c.lastDepSeq = seq
				c.haveDep = true
			}
			tokens--
			spent = true
			c.hasHeld = false
			continue
		}

		// Check the MSHR budget before committing to the access; merges
		// into an in-flight line are always allowed.
		if c.findMiss(line) < 0 && len(c.pending) >= c.mshrs {
			c.stats.StallMSHR++
			return tokens, spent // structural stall: retry next cycle
		}

		seq := c.alloc()
		if ins.IsStore {
			c.stats.Stores++
			e := c.robAt(seq)
			e.ready = true
			e.doneAt = now + 1
		} else {
			c.stats.Loads++
			c.lastLoadSeq = seq
			c.haveLastLoad = true
			if ins.Dependent {
				c.lastDepSeq = seq
				c.haveDep = true
			}
		}
		c.startMem(seq, ins.Addr, ins.PC, ins.IsStore, now)
		tokens--
		spent = true
		c.hasHeld = false
	}
	return tokens, spent
}

// alloc reserves the next ROB slot.
func (c *Core) alloc() uint64 {
	seq := c.tailSeq
	c.tailSeq++
	*c.robAt(seq) = robEntry{}
	return seq
}

// startMem performs the access for a memory instruction whose MSHR check
// has passed. Store ROB entries are completed at their dispatch site
// (store-buffer semantics); startMem never touches them, since a deferred
// store may issue after its ROB slot has been retired and recycled.
func (c *Core) startMem(seq uint64, addr, pc uint64, store bool, now int64) {
	line := memreq.LineAddr(addr)

	if i := c.findMiss(line); i >= 0 {
		// Merge into the in-flight miss.
		s := &c.pending[i]
		if store {
			s.dirty = true
		} else {
			e := c.robAt(seq)
			e.ready = false
			e.doneAt = math.MaxInt64
			s.waiters = append(s.waiters, seq)
		}
		return
	}

	res := c.hier.Access(c.ID, addr, pc, store, now)
	if !res.Async {
		if !store {
			e := c.robAt(seq)
			e.ready = true
			e.doneAt = res.When
		}
		return
	}

	var w []uint64
	if !store {
		e := c.robAt(seq)
		e.ready = false
		e.doneAt = math.MaxInt64
		if n := len(c.freeWaiters); n > 0 {
			w = c.freeWaiters[n-1]
			c.freeWaiters = c.freeWaiters[:n-1]
		}
		w = append(w, seq)
	}
	c.pending = append(c.pending, missSlot{line: line, dirty: store, waiters: w})
}

// tryIssueMem issues a deferred access, honoring the MSHR budget. It
// returns false on a structural stall.
func (c *Core) tryIssueMem(seq uint64, addr, pc uint64, store bool, now int64) bool {
	line := memreq.LineAddr(addr)
	if c.findMiss(line) < 0 && len(c.pending) >= c.mshrs {
		return false
	}
	c.startMem(seq, addr, pc, store, now)
	return true
}

// ResolveMiss is called by the hierarchy when the fill for line completes;
// `when` is the cycle data reaches the core. It returns whether the fill
// must install dirty (a store merged into the miss) and releases the MSHR.
func (c *Core) ResolveMiss(line uint64, when int64) (dirty bool) {
	idx := c.findMiss(line)
	if idx < 0 {
		return false
	}
	s := c.pending[idx]
	last := len(c.pending) - 1
	c.pending[idx] = c.pending[last]
	c.pending[last] = missSlot{}
	c.pending = c.pending[:last]
	for _, seq := range s.waiters {
		if seq < c.headSeq {
			continue // already retired (shouldn't happen; defensive)
		}
		e := c.robAt(seq)
		e.ready = true
		e.doneAt = when
	}
	if s.waiters != nil {
		c.freeWaiters = append(c.freeWaiters, s.waiters[:0])
	}
	return s.dirty
}

// findMiss returns the MSHR index holding line, or -1. The MSHR set is
// tiny (≤16 entries), so a linear scan beats a map lookup on the hot path.
func (c *Core) findMiss(line uint64) int {
	for i := range c.pending {
		if c.pending[i].line == line {
			return i
		}
	}
	return -1
}

// OutstandingMisses reports the in-flight miss count (tests).
func (c *Core) OutstandingMisses() int { return len(c.pending) }

// MeasureStart returns the cycle of the last stats reset.
func (c *Core) MeasureStart() int64 { return c.measureStart }

// RetiredAtFinish returns the retired-count snapshot taken the cycle the
// retirement target was reached (meaningful only once Done reports true).
func (c *Core) RetiredAtFinish() uint64 { return c.retiredAtFinish }

// SetFrozen parks or resumes the core for sampled fast-forward. While
// frozen, Tick only advances the core's clock (no dispatch, retirement, or
// stall accounting) and NextEvent reports no upcoming events, letting the
// event-driven loop jump the clock while the memory system drains in-flight
// work. ResolveMiss still lands fills normally, so outstanding misses
// complete during the freeze and the core resumes from a quiesced window
// boundary. Both transitions clear the latched skip-stall accounting:
// frozen cycles are architecturally inert by construction and must not be
// retro-counted as stalls when the core thaws.
func (c *Core) SetFrozen(on bool) {
	c.frozen = on
	c.skipStallDefer = 0
	c.skipDispatchStallFrom = math.MaxInt64
}

// Gen exposes the instruction generator (for functional cache warmup).
func (c *Core) Gen() trace.Generator { return c.gen }
