package lint_test

import (
	"testing"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
	"coaxial/internal/lint/analysistest"
)

func TestPhaseIsolation(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{
		lint.NewPurity(), // supplies the write-free facts `limit` relies on
		lint.NewPhaseIsolation(nil, []string{"pool.Pool.Run", "phasefix.system.fork"}),
	}, "phasefix")
}
