package lint_test

import (
	"testing"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
	"coaxial/internal/lint/analysistest"
)

// fixtureAllocConfig rebinds the hot-root table to the hermetic allocfix
// fixture: one table-declared root (tableHot) beside the annotation-driven
// ones, plus a function and a method the fixture does not declare, with
// the default always-allocates list unchanged.
func fixtureAllocConfig() lint.AllocConfig {
	cfg := lint.DefaultAllocConfig()
	cfg.HotFuncs = []string{"allocfix.tableHot", "allocfix.removedRoot", "allocfix.node.gone"}
	return cfg
}

func TestAllocCheck(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{
		lint.NewAllocCheck(fixtureAllocConfig()),
	}, "allocfix")
}

// TestAllocCheckConverges: a hot root five helpers above its allocation,
// declared callers-first, and a recursive pair whose summary reasons nest
// each other. Both need summaries run to convergence.
func TestAllocCheckConverges(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{
		lint.NewAllocCheck(lint.DefaultAllocConfig()),
	}, "allocdeep")
}
