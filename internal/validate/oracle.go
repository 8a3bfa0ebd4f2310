// Package validate implements the simulator's differential validation
// harness: an independent DDR5 timing oracle that re-checks every DRAM
// command the scheduler issues against JEDEC-style constraints, and a
// request-lifecycle invariant checker for the memory-request plumbing.
//
// Both checkers are deliberately naive re-implementations. They share no
// scheduling state with the components they watch — the oracle rebuilds
// bank/rank state from the command stream alone, the lifecycle checker
// tracks requests only through their issue/complete edges — so a bug in
// the fast path cannot cancel itself out inside the checker. This mirrors
// the validation methodology of CXL-DMSim and CXLRAMSim: credibility
// comes from an independent layer re-deriving what the model must obey.
package validate

import (
	"fmt"
	"strings"

	"coaxial/internal/dram"
)

// farPast marks "never happened" timestamps; adding any timing parameter
// to it cannot reach a simulated cycle.
const farPast = int64(-1) << 40

const (
	// historyDepth is how many recent commands each oracle retains for
	// violation reports.
	historyDepth = 32
	// maxViolations caps stored violations per oracle; further breaches
	// are still counted.
	maxViolations = 16
)

// Violation is one observed breach of a DDR timing or state rule.
type Violation struct {
	Label   string         // which sub-channel oracle observed it
	Rule    string         // the violated constraint ("tRCD", "tFAW", ...)
	Cmd     dram.Command   // the offending command
	Detail  string         // human-readable specifics
	History []dram.Command // recent commands, oldest first, ending at Cmd
}

// String formats the violation with its command history for reports.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: cycle %d: %s violated by %s bank %d group %d row %#x: %s\n",
		v.Label, v.Cmd.Cycle, v.Rule, v.Cmd.Kind, v.Cmd.Bank, v.Cmd.Group, v.Cmd.Row, v.Detail)
	for _, h := range v.History {
		fmt.Fprintf(&b, "    %10d %-3s bank %2d group %d row %#x\n", h.Cycle, h.Kind, h.Bank, h.Group, h.Row)
	}
	return b.String()
}

// obank is the oracle's per-bank state, rebuilt purely from the command
// stream (never read from the scheduler).
type obank struct {
	open       bool
	row        uint64
	actAt      int64 // last ACT cycle
	preAt      int64 // last PRE cycle
	lastRD     int64 // last read CAS cycle (gates PRE via tRTP)
	wrPreReady int64 // end of write data + tWR (gates PRE)
	refsbUntil int64 // REFsb block window end
	lastREFsb  int64 // last REFsb cycle (per-bank refresh window)
}

// Oracle is an independent DDR5 timing scoreboard for one sub-channel.
// DDR.Watch attaches one per sub-channel as a dram.CommandObserver; it
// scores a single command stream, so no two sub-channels may share one.
type Oracle struct {
	label    string
	t        dram.Timing
	sameBank bool
	nBanks   int
	perGroup int32

	banks []obank

	// Rank-level command history.
	actRing    [4]int64 // FAW window: last four ACT cycles
	actIdx     int
	lastACT    int64
	lastACTGrp int32
	lastCAS    int64
	lastCASGrp int32
	lastCASWr  bool
	busBusy    int64 // data bus occupied until this cycle

	refBlockUntil int64 // all-bank tRFC window end
	lastREF       int64 // last all-bank REF cycle
	lastREFsb     int64 // last REFsb cycle (any bank)
	sbPeriod      int64 // expected REFsb cadence: tREFI / nBanks
	refSlack      int64 // scheduling slack allowed on refresh cadence

	firstCmd int64
	lastCmd  int64

	history []dram.Command
	histPos int

	commands   uint64
	violations []Violation
	nViol      int
}

// NewOracle builds a timing oracle for one sub-channel of a channel with
// the given configuration. The label identifies the sub-channel in
// violation reports (e.g. "ddr0/sub1" or "cxl0/ddr0/sub0").
func NewOracle(cfg dram.Config, label string) *Oracle {
	t := cfg.Timing
	n := cfg.Banks()
	o := &Oracle{
		label:    label,
		t:        t,
		sameBank: cfg.SameBankRefresh,
		nBanks:   n,
		perGroup: int32(cfg.BanksPerGroup),
		banks:    make([]obank, n),
		lastACT:  farPast,
		lastCAS:  farPast,
		lastREF:  farPast,
		firstCmd: farPast,
		lastCmd:  farPast,
		sbPeriod: t.REFI / int64(n),
		// Refresh cadence slack: the scheduler may legitimately issue a
		// refresh late by the quiesce cost — precharging every open bank,
		// each gated by its tRAS/tRTP/tWR window — plus one command slot
		// per bank and a small margin.
		refSlack: t.RAS + t.WL + t.BURST + t.WR + int64(n) + 64,
		history:  make([]dram.Command, 0, historyDepth),
	}
	o.lastREFsb = farPast
	for i := range o.actRing {
		o.actRing[i] = farPast
	}
	for i := range o.banks {
		b := &o.banks[i]
		b.actAt, b.preAt, b.lastRD, b.wrPreReady, b.refsbUntil, b.lastREFsb =
			farPast, farPast, farPast, farPast, farPast, farPast
	}
	return o
}

// Label returns the sub-channel label.
func (o *Oracle) Label() string { return o.label }

// Commands returns how many commands the oracle has observed.
func (o *Oracle) Commands() uint64 { return o.commands }

// ViolationCount returns the total number of breaches observed (including
// any beyond the stored cap).
func (o *Oracle) ViolationCount() int { return o.nViol }

// Violations returns the stored violations, oldest first.
func (o *Oracle) Violations() []Violation { return o.violations }

func (o *Oracle) flag(rule string, c dram.Command, detail string) {
	o.nViol++
	if len(o.violations) >= maxViolations {
		return
	}
	o.violations = append(o.violations, Violation{
		Label:   o.label,
		Rule:    rule,
		Cmd:     c,
		Detail:  detail,
		History: o.snapshotHistory(),
	})
}

func (o *Oracle) pushHistory(c dram.Command) {
	if len(o.history) < historyDepth {
		o.history = append(o.history, c)
		return
	}
	o.history[o.histPos] = c
	o.histPos = (o.histPos + 1) % historyDepth
}

// snapshotHistory returns the retained commands oldest-first.
func (o *Oracle) snapshotHistory() []dram.Command {
	out := make([]dram.Command, 0, len(o.history))
	if len(o.history) < historyDepth {
		return append(out, o.history...)
	}
	out = append(out, o.history[o.histPos:]...)
	return append(out, o.history[:o.histPos]...)
}

// OnCommand implements dram.CommandObserver: it checks the command against
// the oracle's reconstructed state, then applies it.
func (o *Oracle) OnCommand(c dram.Command) {
	o.commands++
	o.pushHistory(c)

	if o.lastCmd != farPast {
		if c.Cycle < o.lastCmd {
			o.flag("command-order", c,
				fmt.Sprintf("command cycle went backwards (previous command at %d)", o.lastCmd))
		} else if c.Cycle == o.lastCmd {
			o.flag("command-bus", c,
				fmt.Sprintf("second command in cycle %d (one command-bus slot per nCK)", c.Cycle))
		}
	}
	if o.firstCmd == farPast {
		o.firstCmd = c.Cycle
	}
	o.lastCmd = c.Cycle

	if c.Cycle < o.refBlockUntil {
		o.flag("tRFC", c,
			fmt.Sprintf("command inside all-bank refresh window (rank blocked until %d)", o.refBlockUntil))
	}

	if c.Bank >= 0 {
		if int(c.Bank) >= o.nBanks {
			o.flag("decode", c, fmt.Sprintf("bank %d out of range (%d banks)", c.Bank, o.nBanks))
			return
		}
		if c.Group != c.Bank/o.perGroup {
			o.flag("decode", c,
				fmt.Sprintf("bank group %d inconsistent with bank %d (expect %d)", c.Group, c.Bank, c.Bank/o.perGroup))
		}
	}

	switch c.Kind {
	case dram.CmdACT:
		o.onACT(c)
	case dram.CmdRD:
		o.onCAS(c, false)
	case dram.CmdWR:
		o.onCAS(c, true)
	case dram.CmdPRE:
		o.onPRE(c)
	case dram.CmdREF:
		if c.Bank < 0 {
			o.onREF(c)
		} else {
			o.onREFsb(c)
		}
	}
}

func (o *Oracle) onACT(c dram.Command) {
	b := &o.banks[c.Bank]
	if b.open {
		o.flag("bank-state", c, fmt.Sprintf("ACT to an open bank (row %#x already open)", b.row))
	}
	if c.Cycle < b.preAt+o.t.RP {
		o.flag("tRP", c,
			fmt.Sprintf("ACT %d cycles after PRE at %d, need tRP=%d", c.Cycle-b.preAt, b.preAt, o.t.RP))
	}
	if c.Cycle < b.actAt+o.t.RC {
		o.flag("tRC", c,
			fmt.Sprintf("ACT %d cycles after ACT at %d, need tRC=%d", c.Cycle-b.actAt, b.actAt, o.t.RC))
	}
	if c.Cycle < b.refsbUntil {
		o.flag("tRFCsb", c,
			fmt.Sprintf("ACT inside same-bank refresh window (bank blocked until %d)", b.refsbUntil))
	}
	rrd := o.t.RRDS
	if c.Group == o.lastACTGrp {
		rrd = o.t.RRDL
	}
	if o.lastACT != farPast && c.Cycle < o.lastACT+rrd {
		o.flag("tRRD", c,
			fmt.Sprintf("ACT %d cycles after rank ACT at %d, need tRRD=%d", c.Cycle-o.lastACT, o.lastACT, rrd))
	}
	if oldest := o.actRing[o.actIdx]; c.Cycle < oldest+o.t.FAW {
		o.flag("tFAW", c,
			fmt.Sprintf("fifth ACT %d cycles after ACT at %d, need tFAW=%d", c.Cycle-oldest, oldest, o.t.FAW))
	}

	b.open, b.row, b.actAt = true, c.Row, c.Cycle
	o.actRing[o.actIdx] = c.Cycle
	o.actIdx = (o.actIdx + 1) % len(o.actRing)
	o.lastACT, o.lastACTGrp = c.Cycle, c.Group
}

func (o *Oracle) onCAS(c dram.Command, isWrite bool) {
	b := &o.banks[c.Bank]
	switch {
	case !b.open:
		o.flag("bank-state", c, "column command to a closed bank")
	case b.row != c.Row:
		o.flag("row-match", c, fmt.Sprintf("column command to row %#x but row %#x is open", c.Row, b.row))
	}
	if c.Cycle < b.actAt+o.t.RCD {
		o.flag("tRCD", c,
			fmt.Sprintf("CAS %d cycles after ACT at %d, need tRCD=%d", c.Cycle-b.actAt, b.actAt, o.t.RCD))
	}
	if o.lastCAS != farPast {
		sameGrp := c.Group == o.lastCASGrp
		ccd := o.t.CCDS
		if sameGrp {
			ccd = o.t.CCDL
		}
		switch {
		case !isWrite && o.lastCASWr:
			wtr := o.t.WTRS
			if sameGrp {
				wtr = o.t.WTRL
			}
			if min := o.lastCAS + o.t.WL + o.t.BURST + wtr; c.Cycle < min {
				o.flag("tWTR", c,
					fmt.Sprintf("read %d cycles after write CAS at %d, need WL+BURST+tWTR=%d",
						c.Cycle-o.lastCAS, o.lastCAS, o.t.WL+o.t.BURST+wtr))
			}
		case isWrite && !o.lastCASWr:
			if min := o.lastCAS + ccd + o.t.RTW; c.Cycle < min {
				o.flag("tRTW", c,
					fmt.Sprintf("write %d cycles after read CAS at %d, need tCCD+tRTW=%d",
						c.Cycle-o.lastCAS, o.lastCAS, ccd+o.t.RTW))
			}
		default:
			if c.Cycle < o.lastCAS+ccd {
				o.flag("tCCD", c,
					fmt.Sprintf("CAS %d cycles after CAS at %d, need tCCD=%d", c.Cycle-o.lastCAS, o.lastCAS, ccd))
			}
		}
	}
	lat := o.t.RL
	if isWrite {
		lat = o.t.WL
	}
	dataStart := c.Cycle + lat
	if dataStart < o.busBusy {
		o.flag("data-bus", c,
			fmt.Sprintf("burst starting at %d overlaps previous burst (bus busy until %d)", dataStart, o.busBusy))
	}
	o.busBusy = dataStart + o.t.BURST
	o.lastCAS, o.lastCASGrp, o.lastCASWr = c.Cycle, c.Group, isWrite
	if isWrite {
		b.wrPreReady = dataStart + o.t.BURST + o.t.WR
	} else {
		b.lastRD = c.Cycle
	}
}

func (o *Oracle) onPRE(c dram.Command) {
	b := &o.banks[c.Bank]
	if !b.open {
		o.flag("bank-state", c, "PRE to a closed bank")
	}
	if c.Cycle < b.actAt+o.t.RAS {
		o.flag("tRAS", c,
			fmt.Sprintf("PRE %d cycles after ACT at %d, need tRAS=%d", c.Cycle-b.actAt, b.actAt, o.t.RAS))
	}
	if c.Cycle < b.lastRD+o.t.RTP {
		o.flag("tRTP", c,
			fmt.Sprintf("PRE %d cycles after read CAS at %d, need tRTP=%d", c.Cycle-b.lastRD, b.lastRD, o.t.RTP))
	}
	if c.Cycle < b.wrPreReady {
		o.flag("tWR", c,
			fmt.Sprintf("PRE before write recovery completes at %d", b.wrPreReady))
	}
	b.open, b.preAt = false, c.Cycle
}

func (o *Oracle) onREF(c dram.Command) {
	if o.sameBank {
		o.flag("refresh-mode", c, "all-bank REF issued in same-bank refresh mode")
	}
	for i := range o.banks {
		if o.banks[i].open {
			o.flag("refresh-quiesce", c, fmt.Sprintf("all-bank REF with bank %d open", i))
			break
		}
	}
	if o.lastREF != farPast {
		if gap := c.Cycle - o.lastREF; gap > o.t.REFI+o.refSlack {
			o.flag("tREFI", c,
				fmt.Sprintf("%d cycles since previous REF at %d, expected <= tREFI=%d (+%d quiesce slack)",
					gap, o.lastREF, o.t.REFI, o.refSlack))
		}
	}
	o.lastREF = c.Cycle
	o.refBlockUntil = c.Cycle + o.t.RFC
}

func (o *Oracle) onREFsb(c dram.Command) {
	if !o.sameBank {
		o.flag("refresh-mode", c, "same-bank REFsb issued in all-bank refresh mode")
	}
	b := &o.banks[c.Bank]
	if b.open {
		o.flag("refresh-quiesce", c, "REFsb to an open bank")
	}
	if o.lastREFsb != farPast {
		if gap := c.Cycle - o.lastREFsb; gap > o.sbPeriod+o.refSlack {
			o.flag("tREFIsb", c,
				fmt.Sprintf("%d cycles since previous REFsb at %d, expected <= tREFI/banks=%d (+%d slack)",
					gap, o.lastREFsb, o.sbPeriod, o.refSlack))
		}
	}
	if b.lastREFsb != farPast {
		if gap := c.Cycle - b.lastREFsb; gap > o.t.REFI+o.refSlack {
			o.flag("tREFW", c,
				fmt.Sprintf("bank refreshed %d cycles after its previous REFsb at %d, window is tREFI=%d (+%d slack)",
					gap, b.lastREFsb, o.t.REFI, o.refSlack))
		}
	}
	o.lastREFsb = c.Cycle
	b.lastREFsb = c.Cycle
	b.refsbUntil = c.Cycle + o.t.RFCsb
}

// Quiesce runs the end-of-run checks against the final system clock: the
// refresh schedule must not have silently stalled while the run was live.
// Call once, after the last tick.
func (o *Oracle) Quiesce(now int64) {
	if o.commands == 0 {
		return // sub-channel never saw traffic or a refresh tick
	}
	end := dram.Command{Cycle: now, Kind: dram.CmdREF, Bank: -1, Group: -1}
	// Bound: one full interval plus the refresh blackout plus quiesce
	// slack may separate the last refresh from the moment the run ended.
	bound := o.t.REFI + o.t.RFC + o.refSlack
	if o.sameBank {
		end.Bank = 0
		last := o.lastREFsb
		if last == farPast {
			last = o.firstCmd
		}
		if gap := now - last; gap > o.sbPeriod+bound {
			o.flag("refresh-stalled", end,
				fmt.Sprintf("run ended %d cycles after the last REFsb at %d", gap, last))
		}
		return
	}
	last := o.lastREF
	if last == farPast {
		last = o.firstCmd
	}
	if gap := now - last; gap > bound {
		o.flag("refresh-stalled", end,
			fmt.Sprintf("run ended %d cycles after the last all-bank REF at %d", gap, last))
	}
}
