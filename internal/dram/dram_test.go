package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"coaxial/internal/memreq"
)

// collector gathers completions.
type collector struct {
	done  []*memreq.Request
	times []int64
}

func (c *collector) Complete(r *memreq.Request, now int64) {
	c.done = append(c.done, r)
	c.times = append(c.times, now)
}

// runUntilDone ticks the sub-channel until it drains or the deadline hits.
func runUntilDone(t *testing.T, s *SubChannel, deadline int64) int64 {
	t.Helper()
	var now int64
	for !s.Idle() {
		now++
		s.Tick(now)
		if now > deadline {
			t.Fatalf("sub-channel did not drain within %d cycles", deadline)
		}
	}
	return now
}

func TestUnloadedReadLatencyClosedBank(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSubChannel(cfg, 1)
	c := &collector{}
	r := &memreq.Request{Addr: 0x1000, Kind: memreq.Read, Issue: 0, Ret: c}
	if !s.Enqueue(r, 1) {
		t.Fatal("enqueue refused on empty channel")
	}
	runUntilDone(t, s, 10_000)
	if len(c.done) != 1 {
		t.Fatalf("expected 1 completion, got %d", len(c.done))
	}
	// Closed bank: arrival -> ACT (next cycle) -> tRCD -> CAS -> RL+BURST.
	want := int64(1) + 1 + cfg.Timing.RCD + cfg.Timing.RL + cfg.Timing.BURST
	got := c.done[0].DataDone
	if got < want-2 || got > want+4 {
		t.Errorf("unloaded read DataDone = %d, want about %d", got, want)
	}
	if q := c.done[0].QueueDelay(); q < 0 || q > 4 {
		t.Errorf("unloaded queue delay = %d, want near 0", q)
	}
	if svc := c.done[0].ServiceTime(); svc != cfg.Timing.RCD+cfg.Timing.RL+cfg.Timing.BURST {
		t.Errorf("service time = %d, want %d", svc, cfg.Timing.RCD+cfg.Timing.RL+cfg.Timing.BURST)
	}
}

func TestRowHitFasterThanRowMiss(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSubChannel(cfg, 1)
	c := &collector{}
	// Two reads to the same row back to back: second is a row hit.
	r1 := &memreq.Request{Addr: 0x0, Kind: memreq.Read, Ret: c}
	r2 := &memreq.Request{Addr: 0x40, Kind: memreq.Read, Ret: c}
	s.Enqueue(r1, 1)
	s.Enqueue(r2, 1)
	runUntilDone(t, s, 10_000)
	if len(c.done) != 2 {
		t.Fatalf("want 2 completions, got %d", len(c.done))
	}
	if r2.ServiceTime() >= r1.ServiceTime() {
		t.Errorf("row hit service (%d) should beat row miss (%d)", r2.ServiceTime(), r1.ServiceTime())
	}
	ct := s.Counters()
	if ct.RowHits != 1 || ct.RowMisses != 1 {
		t.Errorf("row hit/miss counters = %d/%d, want 1/1", ct.RowHits, ct.RowMisses)
	}
}

func TestWriteCompletes(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSubChannel(cfg, 1)
	c := &collector{}
	w := &memreq.Request{Addr: 0x2000, Kind: memreq.Write, Ret: c}
	s.Enqueue(w, 1)
	runUntilDone(t, s, 10_000)
	if len(c.done) != 1 {
		t.Fatalf("write not completed")
	}
	ct := s.Counters()
	if ct.WR != 1 || ct.WriteBytes != memreq.LineSize {
		t.Errorf("write counters wrong: %+v", ct)
	}
}

func TestQueueAdmissionBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReadQueueDepth = 4
	s := NewSubChannel(cfg, 1)
	c := &collector{}
	accepted := 0
	for i := 0; i < 10; i++ {
		r := &memreq.Request{Addr: uint64(i) * 64, Kind: memreq.Read, Ret: c}
		if s.Enqueue(r, 1) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Errorf("accepted %d reads with depth 4", accepted)
	}
	// Writes have their own queue.
	if !s.Enqueue(&memreq.Request{Addr: 0x9000, Kind: memreq.Write, Ret: c}, 1) {
		t.Error("write refused although write queue empty")
	}
	runUntilDone(t, s, 100_000)
}

// traceChecker verifies JEDEC-style command spacing over a full trace.
type traceChecker struct {
	t   Timing
	cfg Config

	cmds []Command
}

// OnCommand implements CommandObserver.
func (tc *traceChecker) OnCommand(c Command) { tc.cmds = append(tc.cmds, c) }

// commandFunc adapts a closure to CommandObserver.
type commandFunc func(Command)

func (f commandFunc) OnCommand(c Command) { f(c) }

// verify checks all pairwise timing constraints; returns the violations.
func (tc *traceChecker) verify(t *testing.T) {
	t.Helper()
	type bankState struct {
		lastACT, lastPRE int64
		lastRD, lastWR   int64
		open             bool
	}
	banks := map[int32]*bankState{}
	get := func(b int32) *bankState {
		st, ok := banks[b]
		if !ok {
			st = &bankState{lastACT: -1 << 40, lastPRE: -1 << 40, lastRD: -1 << 40, lastWR: -1 << 40}
			banks[b] = st
		}
		return st
	}
	var lastCAS int64 = -1 << 40
	var lastCASWrite bool
	var lastCASGroup int32 = -1
	var lastACTTime int64 = -1 << 40
	var lastACTGroup int32 = -1
	var actWindow []int64
	var busBusyUntil int64 = -1 << 40
	var prevCycle int64 = -1

	for _, c := range tc.cmds {
		if c.Cycle == prevCycle && c.Kind != CmdREF {
			t.Errorf("two commands in cycle %d (single command bus)", c.Cycle)
		}
		prevCycle = c.Cycle
		switch c.Kind {
		case CmdACT:
			st := get(c.Bank)
			if c.Cycle-st.lastACT < tc.t.RC {
				t.Errorf("tRC violation on bank %d: ACT@%d after ACT@%d", c.Bank, c.Cycle, st.lastACT)
			}
			if st.open {
				t.Errorf("ACT@%d to already-open bank %d", c.Cycle, c.Bank)
			}
			if c.Cycle-st.lastPRE < tc.t.RP {
				t.Errorf("tRP violation on bank %d: ACT@%d after PRE@%d", c.Bank, c.Cycle, st.lastPRE)
			}
			rrd := tc.t.RRDS
			if c.Group == lastACTGroup {
				rrd = tc.t.RRDL
			}
			if c.Cycle-lastACTTime < rrd {
				t.Errorf("tRRD violation: ACT@%d after ACT@%d (same-group=%v)", c.Cycle, lastACTTime, c.Group == lastACTGroup)
			}
			actWindow = append(actWindow, c.Cycle)
			if len(actWindow) > 4 {
				actWindow = actWindow[1:]
			}
			if len(actWindow) == 4 && c.Cycle-actWindow[0] < tc.t.FAW && actWindow[0] != c.Cycle {
				// window holds the last 4 including this: check span of 4
				if span := c.Cycle - actWindow[0]; span < tc.t.FAW {
					_ = span
					// The 5th ACT would violate; with exactly 4 in window the
					// constraint is on the next one. Recheck correctly below.
				}
			}
			st.lastACT = c.Cycle
			st.open = true
			lastACTTime = c.Cycle
			lastACTGroup = c.Group
		case CmdPRE:
			st := get(c.Bank)
			if !st.open {
				t.Errorf("PRE@%d to closed bank %d", c.Cycle, c.Bank)
			}
			if c.Cycle-st.lastACT < tc.t.RAS {
				t.Errorf("tRAS violation on bank %d: PRE@%d after ACT@%d", c.Bank, c.Cycle, st.lastACT)
			}
			if c.Cycle-st.lastRD < tc.t.RTP {
				t.Errorf("tRTP violation on bank %d: PRE@%d after RD@%d", c.Bank, c.Cycle, st.lastRD)
			}
			if st.lastWR > st.lastACT && c.Cycle-st.lastWR < tc.t.WL+tc.t.BURST+tc.t.WR {
				t.Errorf("tWR violation on bank %d: PRE@%d after WR@%d", c.Bank, c.Cycle, st.lastWR)
			}
			st.open = false
			st.lastPRE = c.Cycle
		case CmdRD, CmdWR:
			st := get(c.Bank)
			if !st.open {
				t.Errorf("%v@%d to closed bank %d", c.Kind, c.Cycle, c.Bank)
			}
			if c.Cycle-st.lastACT < tc.t.RCD {
				t.Errorf("tRCD violation on bank %d: CAS@%d after ACT@%d", c.Bank, c.Cycle, st.lastACT)
			}
			ccd := tc.t.CCDS
			if c.Group == lastCASGroup {
				ccd = tc.t.CCDL
			}
			if c.Kind == CmdRD && lastCASWrite {
				wtr := tc.t.WTRS
				if c.Group == lastCASGroup {
					wtr = tc.t.WTRL
				}
				if c.Cycle-lastCAS < tc.t.WL+tc.t.BURST+wtr {
					t.Errorf("tWTR violation: RD@%d after WR@%d", c.Cycle, lastCAS)
				}
			} else if c.Cycle-lastCAS < ccd {
				t.Errorf("tCCD violation: CAS@%d after CAS@%d", c.Cycle, lastCAS)
			}
			lat := tc.t.RL
			if c.Kind == CmdWR {
				lat = tc.t.WL
				st.lastWR = c.Cycle
			} else {
				st.lastRD = c.Cycle
			}
			dataStart := c.Cycle + lat
			if dataStart < busBusyUntil {
				t.Errorf("data bus overlap: CAS@%d data@%d, bus busy until %d", c.Cycle, dataStart, busBusyUntil)
			}
			busBusyUntil = dataStart + tc.t.BURST
			lastCAS = c.Cycle
			lastCASWrite = c.Kind == CmdWR
			lastCASGroup = c.Group
		case CmdREF:
			for b, st := range banks {
				if st.open {
					t.Errorf("REF@%d with bank %d open", c.Cycle, b)
				}
			}
		}
	}

	// FAW: in any window of tFAW cycles there are at most 4 ACTs.
	var acts []int64
	for _, c := range tc.cmds {
		if c.Kind == CmdACT {
			acts = append(acts, c.Cycle)
		}
	}
	for i := 4; i < len(acts); i++ {
		if acts[i]-acts[i-4] < tc.t.FAW {
			t.Errorf("tFAW violation: 5 ACTs within %d cycles ending @%d", acts[i]-acts[i-4], acts[i])
		}
	}
}

// TestTimingInvariantsRandomTraffic drives random mixed traffic through a
// sub-channel and verifies every JEDEC spacing constraint on the observed
// command trace.
func TestTimingInvariantsRandomTraffic(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSubChannel(cfg, 1)
	tc := &traceChecker{t: cfg.Timing, cfg: cfg}
	s.AttachObserver(tc)
	c := &collector{}
	rng := rand.New(rand.NewSource(42))

	var now int64
	injected := 0
	for injected < 3000 || !s.Idle() {
		now++
		if injected < 3000 && rng.Float64() < 0.2 {
			kind := memreq.Read
			if rng.Float64() < 0.33 {
				kind = memreq.Write
			}
			addr := uint64(rng.Int63n(1<<30)) &^ 63
			if rng.Float64() < 0.3 {
				// Cluster some addresses to exercise row hits.
				addr = uint64(rng.Int63n(64)) * 64
			}
			r := &memreq.Request{Addr: addr, Kind: kind, Ret: c}
			if s.Enqueue(r, now) {
				injected++
			}
		}
		s.Tick(now)
		if now > 10_000_000 {
			t.Fatal("did not drain")
		}
	}
	if len(c.done) != injected {
		t.Fatalf("completed %d of %d", len(c.done), injected)
	}
	tc.verify(t)
	t.Logf("verified %d commands for %d requests", len(tc.cmds), injected)
}

// TestRefreshCadence checks that refreshes happen about every tREFI.
func TestRefreshCadence(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSubChannel(cfg, 1)
	c := &collector{}
	var now int64
	// Light load over 10 refresh intervals.
	for now < cfg.Timing.REFI*10 {
		now++
		if now%5000 == 0 {
			s.Enqueue(&memreq.Request{Addr: uint64(now) * 64, Kind: memreq.Read, Ret: c}, now)
		}
		s.Tick(now)
	}
	ct := s.Counters()
	if ct.REF < 8 || ct.REF > 11 {
		t.Errorf("expected ~10 refreshes over 10 tREFI, got %d", ct.REF)
	}
}

// TestStarvationBound verifies no request waits unboundedly even under a
// row-hit monopoly from an antagonist stream.
func TestStarvationBound(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSubChannel(cfg, 1)
	c := &collector{}

	// Victim: one read to row 1 of bank of addr 0.
	victim := &memreq.Request{Addr: uint64(cfg.RowBytes) * uint64(cfg.Banks()), Kind: memreq.Read, Ret: c}
	s.Enqueue(victim, 1)

	// Antagonists: endless row hits to row 0 (same bank as the victim's
	// conflicting row would need).
	var now int64
	next := uint64(0)
	for now < 60_000 {
		now++
		if now%4 == 0 {
			r := &memreq.Request{Addr: next % uint64(cfg.RowBytes), Kind: memreq.Read, Ret: c}
			next += 64
			s.Enqueue(r, now)
		}
		s.Tick(now)
		if victim.DataDone > 0 {
			break
		}
	}
	if victim.DataDone == 0 {
		t.Fatal("victim starved beyond 60k cycles")
	}
	if victim.QueueDelay() > 20_000 {
		t.Errorf("victim queue delay %d exceeds starvation bound", victim.QueueDelay())
	}
}

// TestDecodeNoAliasing: distinct line addresses never map to the same
// (row, bank) with the same column (property-based).
func TestDecodeNoAliasing(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSubChannel(cfg, 4)
	f := func(a, b uint32) bool {
		la := uint64(a) * 64 * 4 // stay within the divisor's strided space
		lb := uint64(b) * 64 * 4
		if la == lb {
			return true
		}
		rowA, bnkA, _ := s.decode(la)
		rowB, bnkB, _ := s.decode(lb)
		colA := (la / 64 / 4) % uint64(cfg.RowBytes/64)
		colB := (lb / 64 / 4) % uint64(cfg.RowBytes/64)
		// Same (row, bank, col) for distinct lines would alias.
		return !(rowA == rowB && bnkA == bnkB && colA == colB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeBankSpread: sequential rows sweep many distinct banks
// (the permutation must spread streams).
func TestDecodeBankSpread(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSubChannel(cfg, 1)
	seen := map[int32]bool{}
	for i := 0; i < cfg.Banks()*2; i++ {
		addr := uint64(i) * uint64(cfg.RowBytes) // one address per row-sized block
		_, bnk, _ := s.decode(addr)
		seen[bnk] = true
	}
	if len(seen) < cfg.Banks()/2 {
		t.Errorf("sequential rows hit only %d/%d banks", len(seen), cfg.Banks())
	}
}

// TestDecodeCoreBasesSpread: the large per-core address-space bases used by
// the simulator must not all land on the same bank.
func TestDecodeCoreBasesSpread(t *testing.T) {
	s := NewSubChannel(DefaultConfig(), 2)
	seen := map[int32]bool{}
	for core := 0; core < 12; core++ {
		base := (uint64(core) + 1) << 40
		_, bnk, _ := s.decode(base)
		seen[bnk] = true
	}
	if len(seen) < 4 {
		t.Errorf("12 core bases map to only %d banks", len(seen))
	}
}

// TestWriteDrainHysteresis: a write burst beyond the high watermark drains
// even under continuous read pressure.
func TestWriteDrainHysteresis(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSubChannel(cfg, 1)
	c := &collector{}
	var now int64
	writes := 0
	// Fill the write queue to the high watermark.
	for i := 0; i < cfg.WriteHigh; i++ {
		if s.Enqueue(&memreq.Request{Addr: uint64(i) * 64 * 1024, Kind: memreq.Write, Ret: c}, 1) {
			writes++
		}
	}
	// Sustained reads.
	reads := 0
	for now < 100_000 {
		now++
		if reads < 200 && now%20 == 0 {
			if s.Enqueue(&memreq.Request{Addr: uint64(reads)*64 + 1<<26, Kind: memreq.Read, Ret: c}, now) {
				reads++
			}
		}
		s.Tick(now)
		if s.Idle() && reads >= 200 {
			break
		}
	}
	ct := s.Counters()
	if int(ct.WR) != writes {
		t.Errorf("only %d of %d writes drained", ct.WR, writes)
	}
	if int(ct.RD) != reads {
		t.Errorf("only %d of %d reads served", ct.RD, reads)
	}
}

// TestChannelInterleavesSubChannels: requests spread across both
// sub-channels of a channel.
func TestChannelInterleavesSubChannels(t *testing.T) {
	cfg := DefaultConfig()
	ch := NewChannel(cfg, cfg.SubChannels)
	c := &collector{}
	var now int64
	n := 0
	for n < 400 || !ch.Idle() {
		now++
		if n < 400 {
			if ch.Enqueue(&memreq.Request{Addr: uint64(n) * 64, Kind: memreq.Read, Ret: c}, now) {
				n++
			}
		}
		ch.Tick(now)
		if now > 1_000_000 {
			t.Fatal("drain timeout")
		}
	}
	for i, sub := range ch.SubChannels() {
		ct := sub.Counters()
		if ct.RD < 100 {
			t.Errorf("sub-channel %d served only %d reads of 400", i, ct.RD)
		}
	}
	if got := ch.Counters().RD; got != 400 {
		t.Errorf("channel total reads %d, want 400", got)
	}
}

// TestCountersReset: ResetCounters zeroes activity.
func TestCountersReset(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSubChannel(cfg, 1)
	c := &collector{}
	s.Enqueue(&memreq.Request{Addr: 0, Kind: memreq.Read, Ret: c}, 1)
	runUntilDone(t, s, 10_000)
	s.ResetCounters()
	ct := s.Counters()
	if ct.RD != 0 || ct.ACT != 0 || ct.ReadBytes != 0 {
		t.Errorf("counters not reset: %+v", ct)
	}
}

// TestPeakBandwidthAchievable: multi-stream row-hit traffic should
// approach the theoretical peak. (A single stream is tCCD_L-bound at 8/12
// of peak on DDR5 — bank-group interleaving is required for full rate,
// which is why STREAM uses several arrays.)
func TestPeakBandwidthAchievable(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSubChannel(cfg, 1)
	c := &collector{}
	var now int64
	// Four streams starting in different rows (hence banks/groups).
	streams := []uint64{0, 1 << 20, 2 << 20, 3 << 20}
	const target = 4000
	injected := 0
	si := 0
	for injected < target || !s.Idle() {
		now++
		for injected < target {
			if !s.Enqueue(&memreq.Request{Addr: streams[si], Kind: memreq.Read, Ret: c}, now) {
				break
			}
			streams[si] += 64
			si = (si + 1) % len(streams)
			injected++
		}
		s.Tick(now)
		if now > 10_000_000 {
			t.Fatal("drain timeout")
		}
	}
	bytes := s.Counters().ReadBytes
	gbs := float64(bytes) / (float64(now) / 2.4e9) / 1e9
	if gbs < cfg.PeakGBsPerSub*0.75 {
		t.Errorf("streaming read throughput %.1f GB/s below 75%% of %.1f peak", gbs, cfg.PeakGBsPerSub)
	}
	t.Logf("streaming read throughput: %.1f GB/s of %.1f peak", gbs, cfg.PeakGBsPerSub)
}

// TestSingleStreamCCDLBound documents the single-stream ceiling: one
// sequential stream stays within a bank group and is tCCD_L-limited to
// BURST/CCD_L of peak.
func TestSingleStreamCCDLBound(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSubChannel(cfg, 1)
	c := &collector{}
	var now int64
	next := uint64(0)
	const target = 2000
	injected := 0
	for injected < target || !s.Idle() {
		now++
		for injected < target {
			if !s.Enqueue(&memreq.Request{Addr: next, Kind: memreq.Read, Ret: c}, now) {
				break
			}
			next += 64
			injected++
		}
		s.Tick(now)
		if now > 10_000_000 {
			t.Fatal("drain timeout")
		}
	}
	gbs := float64(s.Counters().ReadBytes) / (float64(now) / 2.4e9) / 1e9
	ceiling := cfg.PeakGBsPerSub * float64(cfg.Timing.BURST) / float64(cfg.Timing.CCDL)
	if gbs > ceiling*1.05 {
		t.Errorf("single stream %.1f GB/s exceeds tCCD_L ceiling %.1f", gbs, ceiling)
	}
	if gbs < ceiling*0.85 {
		t.Errorf("single stream %.1f GB/s far below tCCD_L ceiling %.1f", gbs, ceiling)
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Banks() != 32 {
		t.Errorf("banks = %d, want 32", cfg.Banks())
	}
	if cfg.PeakGBs() != 38.4 {
		t.Errorf("channel peak = %v, want 38.4", cfg.PeakGBs())
	}
}

// TestSameBankRefreshCadence: REFsb mode refreshes each bank about once
// per tREFI (32 banks -> 320 REFsb commands over 10 intervals).
func TestSameBankRefreshCadence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SameBankRefresh = true
	s := NewSubChannel(cfg, 1)
	c := &collector{}
	var now int64
	for now < cfg.Timing.REFI*10 {
		now++
		if now%5000 == 0 {
			s.Enqueue(&memreq.Request{Addr: uint64(now) * 64, Kind: memreq.Read, Ret: c}, now)
		}
		s.Tick(now)
	}
	ref := s.Counters().REF
	want := uint64(10 * cfg.Banks())
	if ref < want*9/10 || ref > want*11/10 {
		t.Errorf("REFsb count %d, want ~%d", ref, want)
	}
}

// TestSameBankRefreshSlotSemantics pins the REFsb command-slot rules that
// stepRefreshSameBank implements: (1) while a due REFsb waits for its open
// victim bank's PRE window (now < preAllowed), the command slot is NOT
// consumed — other banks keep issuing through normal FR-FCFS scheduling;
// (2) once the window opens, the refresh path precharges the victim and
// issues REFsb the next cycle; (3) the REFsb blocks only its own bank for
// tRFCsb while other banks proceed immediately.
func TestSameBankRefreshSlotSemantics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SameBankRefresh = true
	cfg.DisableBankPermutation = true // direct (bank, row) address control
	s := NewSubChannel(cfg, 1)

	var cmds []Command
	s.AttachObserver(commandFunc(func(c Command) { cmds = append(cmds, c) }))

	linesPerRow := uint64(cfg.RowBytes / memreq.LineSize)
	addrOf := func(bank, row uint64) uint64 {
		return (row*uint64(cfg.Banks()) + bank) * linesPerRow * memreq.LineSize
	}
	c := &collector{}
	// sbDue starts at 0: bank 0's REFsb fires at cycle 1, bank 1's comes
	// due at tREFI/banks = 292. Read A opens bank 1 at 260, so its tRAS
	// window (ACT+77 = 337) holds bank 1 open past 292 — the REFsb must
	// wait. Read B (bank 2, arriving 295) must issue inside that wait.
	// Reads C (bank 1) and D (bank 3) arrive after the REFsb fires: C must
	// stall out the tRFCsb block, D must proceed immediately.
	s.Enqueue(&memreq.Request{Addr: addrOf(1, 3), Kind: memreq.Read, Ret: c}, 260)
	s.Enqueue(&memreq.Request{Addr: addrOf(2, 5), Kind: memreq.Read, Ret: c}, 295)
	s.Enqueue(&memreq.Request{Addr: addrOf(1, 9), Kind: memreq.Read, Ret: c}, 340)
	s.Enqueue(&memreq.Request{Addr: addrOf(3, 7), Kind: memreq.Read, Ret: c}, 345)
	for now := int64(1); now <= 2000; now++ {
		s.Tick(now)
	}
	if len(c.done) != 4 {
		t.Fatalf("completed %d/4 reads", len(c.done))
	}

	sbDue1 := cfg.Timing.REFI / int64(cfg.Banks()) // bank 1's REFsb due cycle
	find := func(kind CommandKind, bank int32, from int64) *Command {
		for i := range cmds {
			if cmds[i].Kind == kind && cmds[i].Bank == bank && cmds[i].Cycle >= from {
				return &cmds[i]
			}
		}
		return nil
	}

	ref1 := find(CmdREF, 1, 0)
	if ref1 == nil {
		t.Fatal("bank 1 never refreshed")
	}
	// (2) The refresh could only fire once bank 1's tRAS window opened
	// (ACT at 260 + tRAS), preceded by the quiescing PRE one cycle before.
	if actA := find(CmdACT, 1, 0); actA == nil || ref1.Cycle < actA.Cycle+cfg.Timing.RAS+1 {
		t.Errorf("REFsb at %d inside the victim's tRAS window", ref1.Cycle)
	}
	if pre := find(CmdPRE, 1, sbDue1); pre == nil || pre.Cycle >= ref1.Cycle {
		t.Errorf("no quiescing PRE on bank 1 between due cycle %d and REFsb %d", sbDue1, ref1.Cycle)
	}
	// (1) The key slot rule: bank 2's ACT issued while the due REFsb was
	// still waiting on bank 1's PRE window.
	actB := find(CmdACT, 2, 0)
	if actB == nil {
		t.Fatal("bank 2 never activated")
	}
	if actB.Cycle < sbDue1 || actB.Cycle >= ref1.Cycle {
		t.Errorf("bank 2 ACT at %d, want inside the REFsb wait window [%d, %d): a pending REFsb must not consume the slot",
			actB.Cycle, sbDue1, ref1.Cycle)
	}
	// (3) Only the victim bank blocks for tRFCsb.
	actC := find(CmdACT, 1, ref1.Cycle)
	if actC == nil {
		t.Fatal("bank 1 never reactivated after REFsb")
	}
	if actC.Cycle < ref1.Cycle+cfg.Timing.RFCsb {
		t.Errorf("bank 1 ACT at %d violates tRFCsb block until %d", actC.Cycle, ref1.Cycle+cfg.Timing.RFCsb)
	}
	actD := find(CmdACT, 3, 0)
	if actD == nil {
		t.Fatal("bank 3 never activated")
	}
	if actD.Cycle >= ref1.Cycle+cfg.Timing.RFCsb/2 {
		t.Errorf("bank 3 ACT at %d delayed by bank 1's REFsb (issued %d): REFsb must block only its bank",
			actD.Cycle, ref1.Cycle)
	}
}

// TestSameBankRefreshTrimsTail: under random load, per-bank refresh should
// cut the p99 latency versus all-bank refresh (no rank-wide tRFC stall).
func TestSameBankRefreshTrimsTail(t *testing.T) {
	measure := func(sb bool) (mean, p99 float64) {
		cfg := DefaultConfig()
		cfg.SameBankRefresh = sb
		// Reuse the load-latency machinery shape: random reads at ~30%.
		s := NewSubChannel(cfg, 1)
		c := &collector{}
		rng := uint64(99)
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		var now int64
		injected := 0
		const n = 6000
		for injected < n || !s.Idle() {
			now++
			if injected < n && next()%1000 < 37 { // ~30% of 19.2 GB/s
				r := &memreq.Request{Addr: (next() % (1 << 28)) &^ 63, Kind: memreq.Read, Issue: now, Ret: c}
				if s.Enqueue(r, now) {
					injected++
				}
			}
			s.Tick(now)
			if now > 50_000_000 {
				t.Fatal("drain timeout")
			}
		}
		var lats []float64
		for _, r := range c.done {
			lats = append(lats, float64(r.DataDone-r.Issue))
		}
		sortFloats(lats)
		return meanOf(lats), lats[len(lats)*99/100]
	}
	meanAB, p99AB := measure(false)
	meanSB, p99SB := measure(true)
	t.Logf("all-bank: mean %.0f cy p99 %.0f cy | same-bank: mean %.0f cy p99 %.0f cy",
		meanAB, p99AB, meanSB, p99SB)
	if p99SB >= p99AB {
		t.Errorf("REFsb should trim p99: %.0f vs %.0f cycles", p99SB, p99AB)
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func meanOf(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	if len(v) == 0 {
		return 0
	}
	return s / float64(len(v))
}

func TestQueueOccupancy(t *testing.T) {
	cfg := DefaultConfig()
	s := NewSubChannel(cfg, 1)
	c := &collector{}
	r0, w0 := s.QueueOccupancy()
	if r0 != 0 || w0 != 0 {
		t.Errorf("fresh occupancy %d/%d", r0, w0)
	}
	s.Enqueue(&memreq.Request{Addr: 0, Kind: memreq.Read, Ret: c}, 100)
	s.Enqueue(&memreq.Request{Addr: 64, Kind: memreq.Write, Ret: c}, 100)
	// Pending arrivals count toward occupancy before they land.
	r1, w1 := s.QueueOccupancy()
	if r1 != 1 || w1 != 1 {
		t.Errorf("pending occupancy %d/%d", r1, w1)
	}
	runUntilDone(t, s, 100_000)
	r2, w2 := s.QueueOccupancy()
	if r2 != 0 || w2 != 0 {
		t.Errorf("drained occupancy %d/%d", r2, w2)
	}
}

func TestIdleTracksLifecycle(t *testing.T) {
	s := NewSubChannel(DefaultConfig(), 1)
	if !s.Idle() {
		t.Error("fresh sub-channel should be idle")
	}
	c := &collector{}
	s.Enqueue(&memreq.Request{Addr: 0, Kind: memreq.Read, Ret: c}, 1)
	if s.Idle() {
		t.Error("sub-channel with pending work reported idle")
	}
	runUntilDone(t, s, 100_000)
	if !s.Idle() {
		t.Error("drained sub-channel not idle")
	}
}

// TestNextEventMatchesCycleByCycle drives two identical sub-channels with
// the same traffic: a reference ticked every cycle and an event-driven twin
// ticked only at the cycles NextEvent claims (plus enqueue wakes, mirroring
// dram.Channel's lazy path). The command streams, completion times, and
// counters must match exactly: NextEvent may be conservative (extra no-op
// ticks) but must never skip a cycle where the reference acts. A mid-run
// injection gap exercises the long-jump candidates (refresh due, idle
// precharge, distant timing windows) rather than only loaded now+1 steps.
func TestNextEventMatchesCycleByCycle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sameBank bool
		seed     int64
		inject   float64
		n        int
	}{
		{"allbank-sparse", false, 1, 0.01, 400},
		{"allbank-bursty", false, 2, 0.25, 1500},
		{"samebank-sparse", true, 3, 0.01, 400},
		{"samebank-bursty", true, 4, 0.25, 1500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.SameBankRefresh = tc.sameBank
			ref := NewSubChannel(cfg, 1)
			evt := NewSubChannel(cfg, 1)
			var refCmds, evtCmds []Command
			ref.AttachObserver(commandFunc(func(c Command) { refCmds = append(refCmds, c) }))
			evt.AttachObserver(commandFunc(func(c Command) { evtCmds = append(evtCmds, c) }))
			refC := &collector{}
			evtC := &collector{}
			rng := rand.New(rand.NewSource(tc.seed))

			var now, gapUntil int64
			nextDue := int64(1)
			var evtTicks int64
			injected := 0
			for injected < tc.n || !ref.Idle() || !evt.Idle() {
				now++
				if injected == tc.n/2 && gapUntil == 0 {
					gapUntil = now + 30_000
				}
				if injected < tc.n && now >= gapUntil && rng.Float64() < tc.inject {
					kind := memreq.Read
					if rng.Float64() < 0.33 {
						kind = memreq.Write
					}
					addr := uint64(rng.Int63n(1<<30)) &^ 63
					if rng.Float64() < 0.3 {
						addr = uint64(rng.Int63n(64)) * 64
					}
					rr := &memreq.Request{Addr: addr, Kind: kind, Ret: refC}
					re := &memreq.Request{Addr: addr, Kind: kind, Ret: evtC}
					okRef := ref.Enqueue(rr, now)
					okEvt := evt.Enqueue(re, now)
					if okRef != okEvt {
						t.Fatalf("cycle %d: admission diverged (ref %v, evt %v)", now, okRef, okEvt)
					}
					if okRef {
						injected++
						if now < nextDue {
							nextDue = now
						}
					}
				}
				ref.Tick(now)
				if now >= nextDue {
					evt.Tick(now)
					evtTicks++
					nextDue = evt.NextEvent(now)
				}
				if now > 10_000_000 {
					t.Fatal("did not drain")
				}
			}

			// Bring both twins' background accounting to a common cycle
			// before comparing counters.
			ref.Sync(now + 1)
			evt.Sync(now + 1)

			if len(refC.done) != tc.n || len(evtC.done) != tc.n {
				t.Fatalf("completions: ref %d, evt %d, want %d", len(refC.done), len(evtC.done), tc.n)
			}
			for i := range refC.done {
				if refC.times[i] != evtC.times[i] ||
					refC.done[i].Addr != evtC.done[i].Addr ||
					refC.done[i].DataDone != evtC.done[i].DataDone {
					t.Fatalf("completion %d diverged: ref {addr %#x t %d} evt {addr %#x t %d}",
						i, refC.done[i].Addr, refC.times[i], evtC.done[i].Addr, evtC.times[i])
				}
			}
			if len(refCmds) != len(evtCmds) {
				t.Fatalf("command counts diverged: ref %d, evt %d", len(refCmds), len(evtCmds))
			}
			for i := range refCmds {
				if refCmds[i] != evtCmds[i] {
					t.Fatalf("command %d diverged: ref %+v, evt %+v", i, refCmds[i], evtCmds[i])
				}
			}
			if ref.Counters() != evt.Counters() {
				t.Errorf("counters diverged:\nref %+v\nevt %+v", ref.Counters(), evt.Counters())
			}
			if evtTicks >= now {
				t.Errorf("event twin never skipped a cycle (%d ticks over %d cycles)", evtTicks, now)
			}
			t.Logf("%d cycles, %d event ticks (%.1f%%), %d commands",
				now, evtTicks, 100*float64(evtTicks)/float64(now), len(refCmds))
		})
	}
}
