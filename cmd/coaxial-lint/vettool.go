package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
)

// vetConfig is the subset of the cmd/vet .cfg file the tool needs. go vet
// writes one per package and invokes the tool with its path as the sole
// argument.
type vetConfig struct {
	ID          string // package ID (import path)
	ImportPath  string
	GoFiles     []string
	NonGoFiles  []string
	ImportMap   map[string]string // import path in source → canonical path
	PackageFile map[string]string // canonical path → export data file
	Standard    map[string]bool
	ModulePath  string
	VetxOnly    bool   // facts only: no diagnostics wanted
	VetxOutput  string // where to write this package's facts
}

// vettoolMode implements the `go vet -vettool` protocol for one package:
// parse the listed Go files, type-check them against the export data go vet
// supplies, run the suite, print findings, and write an (empty) facts file.
// Cross-package purity facts are unavailable in this mode — only the
// current package's function bodies are in source form — so the suite runs
// with facts computed for this package alone and treats unknown calls
// permissively; alloccheck runs without compiler heap sites. Exit status:
// 0 clean, 2 findings (go vet's convention).
func vettoolMode(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coaxial-lint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "coaxial-lint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// go vet expects the facts file regardless of the outcome.
	if cfg.VetxOutput != "" {
		defer os.WriteFile(cfg.VetxOutput, []byte{}, 0o644)
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		// The standalone driver analyzes non-test sources only (tests may
		// freely range maps for t.Run tables); keep vettool mode consistent.
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coaxial-lint:", err)
			return 1
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return 0
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		exportFile, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exportFile)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tcfg := &types.Config{
		Importer: imp,
		Error:    func(error) {}, // the compiler reports build errors; vet tools stay quiet
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	pkg, _ := tcfg.Check(cfg.ImportPath, fset, files, info)
	if pkg == nil {
		return 0 // unrecoverable type errors: leave reporting to the build
	}

	// Imports are export data: no bodies, so facts exist for this package
	// alone, and no compiler output, so there are no heap sites.
	drv := analysis.NewDriver(lint.Suite(), fset, cfg.ModulePath, true, nil)
	diags, err := drv.Package(files, pkg, info, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coaxial-lint:", err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	// go vet parses "file:line:col: message" diagnostics from stderr.
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
	}
	return 2
}
