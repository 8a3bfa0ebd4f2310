package lint

import (
	"sort"

	"coaxial/internal/lint/analysis"
	"coaxial/internal/lint/loader"
)

// HotPathPackages are the packages the determinism analyzer guards:
// everything a simulated cycle executes. Reporting and CLI code may read
// the wall clock; these packages may not.
var HotPathPackages = []string{
	"coaxial/internal/sim",
	"coaxial/internal/cpu",
	"coaxial/internal/cache",
	"coaxial/internal/dram",
	"coaxial/internal/cxl",
	"coaxial/internal/calm",
	"coaxial/internal/noc",
	"coaxial/internal/memreq",
	"coaxial/internal/clock",
	"coaxial/internal/rack",
	// The validation harness is not ticked per cycle, but its reports are
	// part of a run's reproducible output, so it obeys the same rules.
	"coaxial/internal/validate",
	// The service layer returns simulated measurements on the wire: no
	// time.Now in result payloads (wall clock enters only through the
	// daemon-injected serve.Clock, stamping job metadata) and no
	// order-sensitive map iteration in responses, so identical jobs are
	// byte-identical across runs (TestWireGolden).
	"coaxial/internal/serve",
}

// StatePackages hold mutable simulator state observers must never write.
var StatePackages = []string{
	"coaxial/internal/sim",
	"coaxial/internal/cpu",
	"coaxial/internal/cache",
	"coaxial/internal/dram",
	"coaxial/internal/cxl",
	"coaxial/internal/calm",
	"coaxial/internal/noc",
	"coaxial/internal/memreq",
	"coaxial/internal/rack",
}

// Suite returns the coaxlint analyzers configured for this repository, in
// run order (facts-only passes first).
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NewPurity(),
		NewDeterminism(HotPathPackages),
		NewCounters(CounterConfig{
			CounterTypes: []string{
				"coaxial/internal/stats.Histogram",
				"coaxial/internal/stats.Breakdown",
				"coaxial/internal/stats.Bandwidth",
				"coaxial/internal/stats.Welford",
				"coaxial/internal/dram.Counters",
				"coaxial/internal/cache.Stats",
				"coaxial/internal/cpu.Stats",
				"coaxial/internal/calm.Decisions",
			},
			ResultType: "coaxial/internal/sim.Result",
		}),
		NewObservers(ObserverConfig{
			Interfaces:    []string{"coaxial/internal/dram.CommandObserver"},
			HookTypes:     []string{"coaxial/internal/validate.Lifecycle"},
			StatePackages: StatePackages,
		}),
		NewUnitCheck(DefaultUnitConfig()),
		NewLockCheck(DefaultLockConfig()),
		NewHandleCheck(DefaultHandleConfig()),
		NewAllocCheck(DefaultAllocConfig()),
	}
}

// Run executes the analyzers over a loaded program in dependency order,
// sharing one fact store and the compiler's heap sites, and returns the
// diagnostics of target packages sorted by position.
func Run(prog *loader.Program, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	drv := analysis.NewDriver(analyzers, prog.Fset, prog.ModulePath, false, prog.HeapSites)
	var diags []analysis.Diagnostic
	for _, pkg := range prog.Packages {
		found, err := drv.Package(pkg.Files, pkg.Types, pkg.Info, pkg.Target)
		if err != nil {
			return nil, err
		}
		diags = append(diags, found...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(diags []analysis.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool { return diagLess(diags[i], diags[j]) })
}

func diagLess(a, b analysis.Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Analyzer < b.Analyzer
}
