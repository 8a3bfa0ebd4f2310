package lint_test

import (
	"testing"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
	"coaxial/internal/lint/analysistest"
)

// fixtureLockConfig scopes lockcheck to the hermetic lockfix package,
// keeping the default blocking-call list (the fixture exercises
// sync.WaitGroup.Wait from it).
func fixtureLockConfig() lint.LockConfig {
	cfg := lint.DefaultLockConfig()
	cfg.Scope = []string{"lockfix"}
	return cfg
}

func TestLockCheck(t *testing.T) {
	analysistest.Run(t, "testdata", []*analysis.Analyzer{
		lint.NewLockCheck(fixtureLockConfig()),
	}, "lockfix")
}

// TestLockCheckConverges: the lock requirement of a six-deep helper chain
// reaches the chain's entry, so the finding lands on the unlocked call and
// not inside a helper.
func TestLockCheckConverges(t *testing.T) {
	cfg := lint.DefaultLockConfig()
	cfg.Scope = []string{"lockdeep"}
	analysistest.Run(t, "testdata", []*analysis.Analyzer{lint.NewLockCheck(cfg)}, "lockdeep")
}
