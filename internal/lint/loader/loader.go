// Package loader turns `go list` package patterns into type-checked
// packages for the coaxlint analyzers without depending on
// golang.org/x/tools: module packages are parsed and type-checked from
// source in dependency order (so analyzers can attach facts to their
// objects and find them again from importing packages), while standard
// library dependencies are imported from the toolchain's export data — the
// same data the compiler uses — which needs no network and no source
// type-checking. Producing that export data compiles the module, and the
// same go list call asks the compiler for its escape analysis
// (-gcflags=<module>/...=-m), so the program also carries every heap
// allocation site the compiler reports in module code.
package loader

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"coaxial/internal/lint/analysis"
)

// Package is one type-checked module package.
type Package struct {
	ImportPath string
	Dir        string
	// Target reports whether the package matched the load patterns itself
	// (false: pulled in only as a dependency).
	Target bool
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
	// TypeErrors collects type-checker complaints; the package is still
	// returned with as much type information as could be computed.
	TypeErrors []error
}

// Program is the result of one Load.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	// Packages holds the module packages in dependency order (imports
	// before importers).
	Packages []*Package
	// HeapSites are the heap allocations the compiler reported in the
	// packages' files, sorted by position (see ParseHeapSites).
	HeapSites []analysis.HeapSite
}

// PackageError is one package that failed to load or build. Pos, when
// go list (or the parser) could pin the failure to a file, is a
// file:line:column string; ImportPath is always set.
type PackageError struct {
	ImportPath string
	Pos        string
	Err        string
}

func (e *PackageError) Error() string {
	if e.Pos != "" {
		return fmt.Sprintf("%s: %s: %s", e.ImportPath, e.Pos, e.Err)
	}
	return fmt.Sprintf("%s: %s", e.ImportPath, e.Err)
}

// listError mirrors go list's JSON PackageError.
type listError struct {
	ImportPath string
	Pos        string
	Err        string
}

// asPackageError converts a go list error for pkg, preferring the error's
// own import path (go list attributes dependency failures to the dep).
// Build errors arrive with an empty Pos and compiler-style positions
// embedded in the message, so the first one is lifted out.
func (le *listError) asPackageError(pkg string) *PackageError {
	path := le.ImportPath
	if path == "" {
		path = pkg
	}
	pos, msg := le.Pos, le.Err
	if pos == "" {
		pos, msg = splitPos(msg, path)
	}
	return &PackageError{ImportPath: path, Pos: pos, Err: msg}
}

// splitPos lifts a leading file:line[:col] position out of a
// compiler-style message ("# pkg\nfile.go:3:25: msg\n\thave ()..."),
// dropping the "# pkg" header. Messages with no such position come back
// unchanged.
func splitPos(msg, pkg string) (string, string) {
	msg = strings.TrimPrefix(msg, "# "+pkg+"\n")
	lines := strings.Split(msg, "\n")
	for k, line := range lines {
		trimmed := strings.TrimSpace(line)
		i := strings.Index(trimmed, ".go:")
		if i < 0 {
			continue
		}
		rest := trimmed[i+len(".go:"):]
		j := strings.Index(rest, ": ")
		if j < 0 || !numericPos(rest[:j]) {
			continue
		}
		pos := trimmed[:i+len(".go:")+j]
		lines[k] = strings.TrimSpace(rest[j+2:])
		return pos, strings.Join(lines, "\n")
	}
	return "", msg
}

// numericPos reports whether s looks like "3" or "3:25".
func numericPos(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if (r < '0' || r > '9') && r != ':' {
			return false
		}
	}
	return true
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
	Export     string
	ImportMap  map[string]string
	DepOnly    bool
	Incomplete bool
	Error      *listError
	DepsErrors []*listError
}

// Load lists patterns in dir (a directory inside the module) and
// type-checks every module package in the dependency closure.
func Load(dir string, patterns ...string) (*Program, error) {
	return LoadOverlay(dir, nil, patterns...)
}

// LoadOverlay is Load with file substitution: files whose absolute path
// appears in overlay are read from the given contents instead of disk, by
// the parser and by go list (-overlay), so the package metadata, export
// data and compiler sites all describe the substituted tree while every
// position keeps the on-disk file name. An overlay can change file
// contents (the mutation suites plant bugs this way) but not add or remove
// files.
func LoadOverlay(dir string, overlay map[string][]byte, patterns ...string) (*Program, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: %w", err)
	}
	modulePath, _, err := goCommand(dir, "list", "-m", "-f", "{{.Path}}")
	if err != nil {
		return nil, fmt.Errorf("loader: resolving module: %w", err)
	}
	modulePath = strings.TrimSpace(modulePath)

	// -e keeps go list alive across broken packages so every failure in
	// the pattern set is reported below, each with its package path and
	// (when known) file position — not just the first. -m makes the
	// compile that -export runs anyway print its escape analysis on
	// stderr (replayed from the build cache when nothing changed).
	args := []string{"list", "-e", "-deps", "-export", "-json", "-gcflags=" + modulePath + "/...=-m"}
	// Compile errors name an overlaid file by its substitute; unsubstitute
	// maps those names back to the on-disk file.
	unsubstitute := strings.NewReplacer()
	if len(overlay) > 0 {
		flag, subs, cleanup, err := writeOverlay(overlay)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		defer cleanup()
		args = append(args, flag)
		unsubstitute = strings.NewReplacer(subs...)
	}
	out, compiler, err := goCommand(dir, append(args, patterns...)...)
	if err != nil {
		return nil, fmt.Errorf("loader: go list: %w", err)
	}

	var listed []*listPackage
	dec := json.NewDecoder(strings.NewReader(out))
	for {
		lp := &listPackage{}
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %w", err)
		}
		listed = append(listed, lp)
	}

	prog := &Program{Fset: token.NewFileSet(), ModulePath: modulePath}
	exports := map[string]string{} // import path -> export data file
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	gcImporter := importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	inModule := func(path string) bool {
		return path == modulePath || strings.HasPrefix(path, modulePath+"/")
	}
	srcPkgs := map[string]*Package{}

	// `go list -deps` emits dependencies before their importers, so a
	// single pass type-checks each module package after everything it
	// imports. Broken packages are collected — not bailed on — so one run
	// surfaces every failing package with its own path and position.
	var loadErrs []error
	seenErr := map[string]bool{}
	addErr := func(pe *PackageError) {
		pe.Pos, pe.Err = unsubstitute.Replace(pe.Pos), unsubstitute.Replace(pe.Err)
		key := pe.ImportPath + "\x00" + pe.Pos + "\x00" + pe.Err
		if !seenErr[key] {
			seenErr[key] = true
			loadErrs = append(loadErrs, pe)
		}
	}
	for _, lp := range listed {
		if !inModule(lp.ImportPath) {
			if lp.Error != nil {
				addErr(lp.Error.asPackageError(lp.ImportPath))
			}
			continue
		}
		if lp.Error != nil {
			addErr(lp.Error.asPackageError(lp.ImportPath))
			continue
		}
		for _, de := range lp.DepsErrors {
			addErr(de.asPackageError(lp.ImportPath))
		}
		pkg, err := typeCheck(prog, lp, srcPkgs, gcImporter, overlay)
		if err != nil {
			var pe *PackageError
			if errors.As(err, &pe) {
				addErr(pe)
			} else {
				return nil, err
			}
			continue
		}
		srcPkgs[lp.ImportPath] = pkg
		prog.Packages = append(prog.Packages, pkg)
	}
	if len(loadErrs) > 0 {
		return nil, fmt.Errorf("loader: %w", errors.Join(loadErrs...))
	}
	var files []*ast.File
	for _, pkg := range prog.Packages {
		files = append(files, pkg.Files...)
	}
	if prog.HeapSites, err = ParseHeapSites(compiler, dir, prog.Fset, files); err != nil {
		return nil, fmt.Errorf("loader: go list -gcflags=-m: %w", err)
	}
	return prog, nil
}

// writeOverlay writes the overlay contents, and the go command's -overlay
// file mapping their on-disk paths to them, into a temporary directory. It
// returns the flag, substitute/original path pairs, and a cleanup that
// removes the directory.
func writeOverlay(overlay map[string][]byte) (flag string, subs []string, cleanup func(), err error) {
	tmp, err := os.MkdirTemp("", "coaxlint-overlay-")
	if err != nil {
		return "", nil, nil, err
	}
	cleanup = func() { os.RemoveAll(tmp) }
	replace := map[string]string{}
	for path, content := range overlay {
		sub := filepath.Join(tmp, fmt.Sprintf("%d-%s", len(replace), filepath.Base(path)))
		replace[path] = sub
		subs = append(subs, sub, path)
		if err = os.WriteFile(sub, content, 0o644); err != nil {
			break
		}
	}
	spec := filepath.Join(tmp, "overlay.json")
	if err == nil {
		data, _ := json.Marshal(map[string]any{"Replace": replace}) // strings only: cannot fail
		err = os.WriteFile(spec, data, 0o644)
	}
	if err != nil {
		cleanup()
		return "", nil, nil, err
	}
	return "-overlay=" + spec, subs, cleanup, nil
}

// typeCheck parses and checks one module package from source.
func typeCheck(prog *Program, lp *listPackage, srcPkgs map[string]*Package,
	gcImporter types.Importer, overlay map[string][]byte) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		var src any
		if content, ok := overlay[path]; ok {
			src = content
		}
		f, err := parser.ParseFile(prog.Fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, parseError(lp.ImportPath, err)
		}
		files = append(files, f)
	}

	pkg := &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		Target:     !lp.DepOnly,
		Files:      files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}

	imp := importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := lp.ImportMap[path]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if p, ok := srcPkgs[path]; ok {
			return p.Types, nil
		}
		return gcImporter.Import(path)
	})
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(lp.ImportPath, prog.Fset, files, pkg.Info)
	return pkg, nil
}

// parseError shapes a parser failure into a *PackageError carrying the
// first syntax error's file position.
func parseError(importPath string, err error) *PackageError {
	var el scanner.ErrorList
	if errors.As(err, &el) && len(el) > 0 {
		msg := el[0].Msg
		if len(el) > 1 {
			msg = fmt.Sprintf("%s (and %d more syntax errors)", msg, len(el)-1)
		}
		return &PackageError{ImportPath: importPath, Pos: el[0].Pos.String(), Err: msg}
	}
	return &PackageError{ImportPath: importPath, Err: err.Error()}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goCommand runs the go command in dir and returns its stdout and stderr.
func goCommand(dir string, args ...string) (string, string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out), stderr.String(), nil
}
