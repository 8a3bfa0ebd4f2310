package lint_test

import (
	"testing"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
)

// phaseIsoMutations plant isolation bugs into the one parallel phase the
// simulator has, the worker literal of rack.Step's host phase: a write to
// captured rack state, a constant index in place of the worker index, and
// a mutating call on a pooled device every worker shares.
func phaseIsoMutations() []concMutation {
	const anchor = `		rk.pool.Run(len(hosts), func(i int) { hosts[i].TickCycle(next) })`
	return []concMutation{
		{
			name: "rack-worker-writes-captured-clock",
			file: "internal/rack/rack.go",
			old:  anchor,
			new: `		rk.pool.Run(len(hosts), func(i int) {
			hosts[i].TickCycle(next)
			rk.now = next
		})`,
			patterns: []string{"coaxial/internal/rack"},
			want:     []string{"parallel phase worker writes shared state not derived from its worker index"},
			atPlant:  true,
		},
		{
			name:     "rack-worker-constant-index",
			file:     "internal/rack/rack.go",
			old:      anchor,
			new:      `		rk.pool.Run(len(hosts), func(i int) { hosts[0].TickCycle(next) })`,
			patterns: []string{"coaxial/internal/rack"},
			want:     []string{"parallel phase worker calls TickCycle, which mutates state not derived from the worker index"},
			atPlant:  true,
		},
		{
			name: "rack-worker-ticks-shared-device",
			file: "internal/rack/rack.go",
			old:  anchor,
			new: `		rk.pool.Run(len(hosts), func(i int) {
			hosts[i].TickCycle(next)
			rk.devices[0].TickDevice(next)
		})`,
			patterns: []string{"coaxial/internal/rack"},
			want:     []string{"parallel phase worker calls TickDevice, which mutates state not derived from the worker index"},
			atPlant:  true,
		},
	}
}

// newPhaseIso returns the phase-isolation analyzer exactly as the coaxlint
// suite configures it.
func newPhaseIso() *analysis.Analyzer {
	for _, a := range lint.Suite() {
		if a.Name == "phaseiso" {
			return a
		}
	}
	panic("coaxlint suite has no phaseiso analyzer")
}

func TestPhaseIsoMutations(t *testing.T) {
	runMutations(t, newPhaseIso, phaseIsoMutations())
}
