package sim

import (
	"fmt"
	"slices"
	"strings"

	"coaxial/internal/cxl"
	"coaxial/internal/dram"
	"coaxial/internal/memreq"
	"coaxial/internal/validate"
)

// validation bundles the per-system checkers of the differential
// validation harness (RunConfig.Validate / coaxial.WithValidation): one
// independent DDR5 timing oracle per sub-channel the system owns, and one
// request-lifecycle checker hooked into send/Complete.
type validation struct {
	lc  *validate.Lifecycle
	ddr validate.DDR
}

// enableValidation attaches the differential validation harness. Call
// before the first tick; idempotent. The system watches the DDR channels
// it owns: direct channels and each CXL channel's private device. Pooled
// devices are the rack's to watch. The lifecycle checker is per System, so
// the hosts of a rack share no checker.
//
// The harness is observation-only: it never mutates requests or
// schedulers, so a validated run is bit-identical to an unvalidated one.
func (s *System) enableValidation() {
	if s.val != nil {
		return
	}
	v := &validation{lc: validate.NewLifecycle()}
	for ch, b := range s.backends {
		switch t := b.(type) {
		case *dram.Channel:
			v.ddr.Watch(fmt.Sprintf("ddr%d", ch), t)
		case *cxl.Channel:
			for di, d := range t.Device().DDR() {
				v.ddr.Watch(fmt.Sprintf("cxl%d/ddr%d", ch, di), d)
			}
		}
	}
	s.val = v
	// Route arena misuse (double release, foreign request) into the
	// lifecycle report instead of panicking, so a plumbing bug surfaces as
	// a *ValidationError with full context alongside any related findings.
	s.arena.SetFailf(v.lc.Failf)
}

// portOf returns backend b's CXL port: b itself, or the one a private
// *cxl.Channel embeds. Nil for a direct DDR channel.
func portOf(b ExternalBackend) *cxl.Port {
	switch t := b.(type) {
	case *cxl.Port:
		return t
	case *cxl.Channel:
		return &t.Port
	}
	return nil
}

// forEachPending walks every request the memory system currently owns:
// the spill retry queues, each direct DDR channel, each CXL port's queues,
// then the DDR channels of every device those ports reach. Each device is
// walked once, however many of this host's ports reach it, and only this
// host's requests are kept, so every request is visited exactly once even
// on a device other hosts share.
func (s *System) forEachPending(fn func(*memreq.Request)) {
	for ch := range s.backends {
		for i := range s.spillR[ch] {
			fn(s.spillR[ch][i].r)
		}
		for i := range s.spillW[ch] {
			fn(s.spillW[ch][i].r)
		}
	}
	var devs []*cxl.PooledDevice
	for _, b := range s.backends {
		if d, ok := b.(*dram.Channel); ok {
			d.ForEachPending(fn)
		}
		if p := portOf(b); p != nil {
			p.ForEachPending(fn)
			if !slices.Contains(devs, p.Device()) {
				devs = append(devs, p.Device())
			}
		}
	}
	for _, d := range devs {
		for _, ch := range d.DDR() {
			ch.ForEachPending(func(r *memreq.Request) {
				if r.Host == s.hostID {
					fn(r)
				}
			})
		}
	}
}

// ValidationError aggregates every violation the harness observed in one
// run: DDR timing-rule breaches (with command history) and request-
// lifecycle invariant failures.
type ValidationError struct {
	// Count is the total number of violations, including any beyond the
	// per-checker storage caps.
	Count int
	// Report is the formatted violation listing.
	Report string
}

// Error implements error.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("sim: validation failed: %d invariant violation(s)\n%s", e.Count, e.Report)
}

// validationError runs the end-of-window checks and collapses the
// harness's findings into a single error (nil when every check passed).
// Call after the final syncClock, on the success path only: a cancelled
// or budget-exhausted run legitimately leaves requests in flight.
func (s *System) validationError() error {
	if s.val == nil {
		return nil
	}
	lc := s.val.lc

	// MSHR occupancy: per-core counts bounded by the configured MSHR
	// budget, and their sum must equal the non-discarded in-flight reads.
	held := 0
	for i, c := range s.cores {
		m := c.OutstandingMisses()
		if m < 0 || m > s.cfg.MSHRs {
			lc.Failf("core %d MSHR occupancy %d outside [0, %d] at window end", i, m, s.cfg.MSHRs)
		}
		held += m
	}
	lc.CheckEnd(s.forEachPending, held)

	// Arena handle escape: every request a queue still owns must be a live
	// allocation. A dead one means some component released a request while
	// another still held its pointer — the stale handle would silently read
	// a recycled request. Conversely, every request dies in Complete, so a
	// live allocation that no queue holds was lost.
	queued := 0
	s.forEachPending(func(r *memreq.Request) {
		queued++
		if r != nil && !s.arena.IsLive(r) {
			lc.Failf("escaped handle: request %#x (core %d) present in a memory-system queue after release",
				r.Addr, r.Core)
		}
	})
	if live := s.arena.Live(); live != queued {
		lc.Failf("arena holds %d live requests but the memory-system queues hold %d", live, queued)
	}

	var b strings.Builder
	count := s.val.ddr.Check(s.now, &b) + lc.ErrorCount()
	// Port admission bounds. A pooled device's DDR occupancy is the rack's
	// check.
	for ch, be := range s.backends {
		if p := portOf(be); p != nil {
			if out := p.Outstanding(); out < 0 || out > p.IngressDepth() {
				count++
				fmt.Fprintf(&b, "occupancy: cxl%d outstanding count %d outside [0, %d]\n", ch, out, p.IngressDepth())
			}
		}
	}
	for _, e := range lc.Errors() {
		b.WriteString("lifecycle: ")
		b.WriteString(e)
		b.WriteByte('\n')
	}
	if count == 0 {
		return nil
	}
	return &ValidationError{Count: count, Report: b.String()}
}
