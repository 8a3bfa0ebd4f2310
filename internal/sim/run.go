package sim

import (
	"context"
	"errors"
	"fmt"
)

// This file is the one run loop every simulated machine shares: a single
// System (RunMixCtx, RunGenerators, RunMixWarm) and a rack of Systems
// stepping in lockstep (internal/rack) both run their timed windows
// through RunWindows and every phase through RunPhase, under the budgets
// and defaults defined here.

// defaultMaxCyclesPerInstr is RunConfig.MaxCyclesPerInstr's default.
const defaultMaxCyclesPerInstr = 400

// ctxCheckCycles is the cancellation-poll granularity of RunPhase: the
// context is consulted once per this many simulated cycles, so a canceled
// run stops at the next such window boundary with consistent state (every
// in-flight cycle fully drained) rather than mid-cycle.
const ctxCheckCycles = 4096

// CheckWindows reports a run configuration no run can execute: one with a
// zero measure window. Every run entry calls it first.
func (rc RunConfig) CheckWindows() error {
	if rc.MeasureInstr == 0 {
		return errors.New("sim: zero measure window")
	}
	return nil
}

// MaxCycles bounds a phase of target per-core instructions under rc's
// runaway budget: MaxCyclesPerInstr (default 400) cycles per instruction
// plus a fixed million-cycle allowance.
func MaxCycles(target uint64, rc RunConfig) int64 {
	maxPer := rc.MaxCyclesPerInstr
	if maxPer <= 0 {
		maxPer = defaultMaxCyclesPerInstr
	}
	return int64(target)*maxPer + 1_000_000
}

// Stepper is a machine the phase loop drives: a System, or a rack of
// Systems advancing in lockstep.
type Stepper interface {
	// Now returns the current cycle.
	Now() int64
	// SetTarget arms every core's retirement target for a phase, counted
	// from the last measurement reset.
	SetTarget(target uint64)
	// Done reports whether every core reached its target.
	Done() bool
	// PhaseRetired returns the slowest core's retirement count toward
	// target, capped at target (Progress.Retired).
	PhaseRetired(target uint64) uint64
	// Step simulates the next cycle the machine must (at most limit under
	// event-driven clocking) and returns it with Done's answer after it,
	// so the phase loop makes one call per simulated step.
	Step(limit int64) (now int64, done bool)
}

// RunPhase steps m until every core retires target instructions, bounded
// by maxCycles and by ctx cancellation, which it polls every
// ctxCheckCycles simulated cycles. progress, when non-nil, observes the
// phase (labelled phase) at every poll and once at its end. who prefixes
// errors ("sim: coaxial-4x").
func RunPhase(ctx context.Context, m Stepper, who, phase string, target uint64, maxCycles int64, progress func(Progress)) error {
	m.SetTarget(target)
	start := m.Now()
	now, limit, nextCheck := start, start+maxCycles, start+ctxCheckCycles
	for done := m.Done(); !done; now, done = m.Step(limit) {
		if now >= limit {
			return fmt.Errorf("%s: exceeded cycle budget (%d cycles for %d instructions)", who, maxCycles, target)
		}
		if now >= nextCheck {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("%s: stopped at cycle %d: %w", who, now, err)
			}
			if progress != nil {
				progress(Progress{Phase: phase, Cycles: now - start, Retired: m.PhaseRetired(target), Target: target})
			}
			nextCheck = now + ctxCheckCycles
		}
	}
	if progress != nil {
		progress(Progress{Phase: phase, Cycles: now - start, Retired: m.PhaseRetired(target), Target: target})
	}
	return nil
}

// Machine is what RunWindows drives: a Stepper with a measurement boundary
// and end-of-window checks.
type Machine interface {
	Stepper
	// BeginMeasurement zeroes all measurement state at the warmup boundary.
	BeginMeasurement()
	// ValidationReport runs the end-of-window validation checks (nil when
	// validation is off or every check passed).
	ValidationReport() error
}

// RunWindows runs rc's timed warmup and measure windows on a warmed
// machine, then calls collect and returns the end-of-window validation
// report. On cancellation it calls collect for the partial measurements
// and returns the wrapped ctx error without validating: a cancelled run
// legitimately leaves requests in flight. On any other failure it returns
// the error without collecting. who prefixes errors.
func RunWindows(ctx context.Context, m Machine, who string, rc RunConfig, collect func()) error {
	err := runWindows(ctx, m, who, rc)
	switch {
	case err == nil:
		collect()
		return m.ValidationReport()
	case ctx.Err() != nil:
		collect()
	}
	return err
}

func runWindows(ctx context.Context, m Machine, who string, rc RunConfig) error {
	if rc.WarmupInstr > 0 {
		if err := RunPhase(ctx, m, who, "warmup", rc.WarmupInstr, MaxCycles(rc.WarmupInstr, rc), rc.OnProgress); err != nil {
			return err
		}
	}
	m.BeginMeasurement()
	// Only a single System samples its measure window; racks reject
	// sampled configurations up front.
	if s, ok := m.(*System); ok && rc.SampleDetailInstr > 0 && rc.SampleFastFwdInstr > 0 {
		return s.runMeasureSampled(ctx, who, rc)
	}
	return RunPhase(ctx, m, who, "measure", rc.MeasureInstr, MaxCycles(rc.MeasureInstr, rc), rc.OnProgress)
}
