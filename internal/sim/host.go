package sim

import "coaxial/internal/trace"

// This file is the external driver surface of a System: the handles a
// multi-host topology (internal/rack) needs to step hosts in lockstep
// under its own phased cycle instead of System.Step. The methods re-expose
// existing internals unchanged, so a driver composing them in the
// documented order reproduces Step bit-exactly (the 1-host leg of
// TestRackClockingEquivalence pins this).
//
// Per-cycle protocol for a rack step to cycle `next`:
//
//	next := min over hosts of NextEventBound(limit),
//	        min over pooled devices of NextEvent(now)   (event mode)
//	next := now + 1                                     (cycle mode)
//	phase H: every host TickCycle(next)        — sequential, host order
//	phase D: every pooled device TickDevice(next) — sequential, fixed order
//	phase E: per host, in host order:
//	         WakeBackendAt(ch, port.NextEvent(next)) for every port channel
//
// Phase H touches only host-private state (port ingress/response heaps are
// host-side), phase D only device state — except that a committed write is
// handed to its own host's Complete, which only releases it — so no host
// sees another's updates within a phase; phase E re-arms each host's
// cached backend bounds after the device phase scheduled new response
// deliveries (wakes only clamp down, and phase D can only add events, so
// clamping is sufficient).

// Now returns the host's current cycle.
func (s *System) Now() int64 { return s.now }

// NextEventBound returns the next cycle this host needs to simulate, at
// most limit (see nextEventBound). Event-driven clocking only; under
// CycleByCycle drive the host with next = Now()+1.
func (s *System) NextEventBound(limit int64) int64 { return s.nextEventBound(limit) }

// TickCycle advances the host to cycle next (> Now()), honoring the
// configured clocking mode: the event-driven cycle body under EventDriven
// (callers choose next via NextEventBound folding), the full reference
// step under CycleByCycle (next must be Now()+1).
func (s *System) TickCycle(next int64) {
	if s.clocking == CycleByCycle {
		s.step()
		return
	}
	s.tickEventCycle(next)
}

// SetTarget sets every core's retirement target (counted from the last
// stats reset), the Done condition for the current phase.
func (s *System) SetTarget(target uint64) {
	for _, c := range s.cores {
		c.SetTarget(target)
	}
}

// Done reports whether every core reached its SetTarget retirement target.
func (s *System) Done() bool {
	for _, c := range s.cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

// WakeBackendAt clamps channel ch's cached next-event cycle down to at.
// A rack driver calls it after each device phase with the port's fresh
// NextEvent, so response deliveries the device just scheduled are not
// skipped over.
func (s *System) WakeBackendAt(ch int, at int64) { s.wakeBackend(ch, at) }

// Configure applies rc's per-system settings — clocking and the validation
// harness — to a freshly built system, before its first tick. Every run
// path calls it.
func (s *System) Configure(rc RunConfig) {
	s.SetClocking(rc.Clocking)
	if rc.Validate {
		s.enableValidation()
	}
}

// Prewarm runs the untimed warmup (LLC pre-fill from the construction
// hints plus functional warmup) per rc: every cold-start run and every
// warm-state capture begins with it.
func (s *System) Prewarm(rc RunConfig) {
	if rc.SkipFunctional {
		return
	}
	if s.prefillHints != nil {
		s.prefillLLC(s.prefillHints, rc.Seed)
	}
	s.functionalWarmup(rc.functionalInstr())
}

// BeginMeasurement zeroes all measurement state at the warmup boundary
// (resetStats): counters, histograms, per-core stats, and backend DRAM
// counters; subsequent activity is measured.
func (s *System) BeginMeasurement() { s.resetStats() }

// Collect snapshots the host's measurements after the measure phase (see
// collect). workloads labels the result; it may be nil.
func (s *System) Collect(workloads []trace.Workload) Result { return s.collect(mixLabel(workloads)) }

// ValidationReport runs the end-of-window validation checks and returns
// the aggregated *ValidationError, or nil — when validation is enabled and
// every check passed, or when validation is disabled. Call only on the
// success path with the system quiesced at its final cycle.
func (s *System) ValidationReport() error { return s.validationError() }
