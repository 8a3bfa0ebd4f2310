// Package analysistest runs coaxlint analyzers over hermetic fixture
// packages and checks their diagnostics against `// want "regexp"`
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest
// closely enough that the fixtures would port unchanged.
//
// Fixtures live under a testdata directory as src/<importpath>/*.go;
// imports resolve among the fixtures themselves (so a fixture directory
// src/time provides the `time` package its siblings import — stubs, not
// the real stdlib). Every loaded package is analyzed, stubs included: a
// stub that provokes a diagnostic without a matching want fails the test.
//
// When an analyzer reads the compiler's heap sites (UsesHeapSites), the
// harness also compiles the fixture packages once with -gcflags=-m. The
// go command resolves imports itself, so such fixtures must import the
// real standard library rather than stubs of it.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"coaxial/internal/lint/analysis"
	"coaxial/internal/lint/loader"
)

// Run loads the fixture package at dir/src/<pkgPath> (plus everything it
// imports from the same tree) and applies the analyzers to every loaded
// package in dependency order, sharing one fact store. Diagnostics must
// match the want expectations one-to-one.
func Run(t *testing.T, dir string, analyzers []*analysis.Analyzer, pkgPath string) {
	t.Helper()
	l, diags := analyze(t, dir, analyzers, pkgPath)

	wants := map[token.Position][]*wantExpectation{}
	for _, pkg := range l.order {
		for _, f := range pkg.files {
			collectWants(t, l.fset, f, wants)
		}
	}

	for _, d := range diags {
		key := token.Position{Filename: d.Pos.Filename, Line: d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	var keys []token.Position
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Filename != keys[j].Filename {
			return keys[i].Filename < keys[j].Filename
		}
		return keys[i].Line < keys[j].Line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matched `want %q`", k.Filename, k.Line, w.re)
			}
		}
	}
}

// RunExpectingNone loads and analyzes like Run but requires zero
// diagnostics, ignoring any want comments in the fixtures — for checking
// that a scoped-out or reconfigured analyzer goes quiet.
func RunExpectingNone(t *testing.T, dir string, analyzers []*analysis.Analyzer, pkgPath string) {
	t.Helper()
	_, diags := analyze(t, dir, analyzers, pkgPath)
	for _, d := range diags {
		t.Errorf("%s: unexpected diagnostic: [%s] %s", d.Pos, d.Analyzer, d.Message)
	}
}

// analyze loads the fixture tree rooted at pkgPath and runs the analyzers
// over every loaded package in dependency order with a shared fact store.
func analyze(t *testing.T, dir string, analyzers []*analysis.Analyzer, pkgPath string) (*fixtureLoader, []analysis.Diagnostic) {
	t.Helper()
	l := &fixtureLoader{
		fset: token.NewFileSet(),
		root: filepath.Join(dir, "src"),
		pkgs: map[string]*fixturePkg{},
	}
	if _, err := l.load(pkgPath); err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}
	var sites []analysis.HeapSite
	if slices.ContainsFunc(analyzers, func(a *analysis.Analyzer) bool { return a.UsesHeapSites }) {
		sites = l.heapSites(t, pkgPath)
	}
	drv := analysis.NewDriver(analyzers, l.fset, "", false, sites)
	var diags []analysis.Diagnostic
	for _, pkg := range l.order {
		found, err := drv.Package(pkg.files, pkg.types, pkg.info, true)
		if err != nil {
			t.Fatalf("analyzing %s: %v", pkg.path, err)
		}
		diags = append(diags, found...)
	}
	return l, diags
}

// wantExpectation is one `// want "re"` pattern awaiting a diagnostic.
type wantExpectation struct {
	re   *regexp.Regexp
	used bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// collectWants parses the want comments of one file. An expectation anchors
// to the line its comment starts on.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File, out map[token.Position][]*wantExpectation) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			key := token.Position{Filename: pos.Filename, Line: pos.Line}
			for _, lit := range splitQuoted(m[1]) {
				pattern, err := strconv.Unquote(lit)
				if err != nil {
					t.Fatalf("%s:%d: malformed want pattern %s: %v", pos.Filename, pos.Line, lit, err)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
				}
				out[key] = append(out[key], &wantExpectation{re: re})
			}
		}
	}
}

// splitQuoted extracts the string literals — double- or backtick-quoted,
// as x/tools fixtures write them — from a want comment's argument list.
func splitQuoted(s string) []string {
	var out []string
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			j := i + 1
			for j < len(s) && s[j] != '"' {
				if s[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(s) {
				return out
			}
			out = append(out, s[i:j+1])
			i = j
		case '`':
			j := strings.IndexByte(s[i+1:], '`')
			if j < 0 {
				return out
			}
			out = append(out, s[i:i+j+2])
			i += j + 1
		}
	}
	return out
}

// fixturePkg is one type-checked fixture package.
type fixturePkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// fixtureLoader loads fixture packages recursively, recording dependency
// order (imports before importers) so facts flow like the real driver's.
type fixtureLoader struct {
	fset    *token.FileSet
	root    string
	pkgs    map[string]*fixturePkg
	order   []*fixturePkg
	loading []string
	gc      types.Importer
}

func (l *fixtureLoader) load(path string) (*fixturePkg, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %q (%s)", path, strings.Join(l.loading, " -> "))
		}
		return pkg, nil
	}
	l.pkgs[path] = nil // cycle marker
	l.loading = append(l.loading, path)
	defer func() { l.loading = l.loading[:len(l.loading)-1] }()

	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &fixturePkg{path: path}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fname := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(l.fset, fname, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.files = append(pkg.files, f)
	}
	if len(pkg.files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	pkg.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := &types.Config{Importer: importerFunc(l.importFixture)}
	tpkg, err := cfg.Check(path, l.fset, pkg.files, pkg.info)
	if err != nil {
		return nil, err
	}
	pkg.types = tpkg
	l.pkgs[path] = pkg
	l.order = append(l.order, pkg)
	return pkg, nil
}

// heapSites compiles the fixture package pkgPath in GOPATH mode — the
// layout the fixture tree already has — with the compiler's escape
// analysis on for the loaded fixture packages alone, so the standard
// library comes from the build cache unchanged, and parses the heap sites
// it reports with the loader's parser.
func (l *fixtureLoader) heapSites(t *testing.T, pkgPath string) []analysis.HeapSite {
	t.Helper()
	gopath, err := filepath.Abs(filepath.Dir(l.root))
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"build"}
	var files []*ast.File
	for _, pkg := range l.order {
		args = append(args, "-gcflags="+pkg.path+"=-m")
		files = append(files, pkg.files...)
	}
	cmd := exec.Command("go", append(args, pkgPath)...)
	cmd.Dir = gopath
	cmd.Env = append(os.Environ(), "GO111MODULE=off", "GOPATH="+gopath, "GOFLAGS=")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("compiling fixture %s: %v\n%s", pkgPath, err, stderr.String())
	}
	sites, err := loader.ParseHeapSites(stderr.String(), gopath, l.fset, files)
	if err != nil {
		t.Fatalf("compiling fixture %s: %v", pkgPath, err)
	}
	return sites
}

// importFixture resolves an import: fixture tree first, real stdlib export
// data as a fallback (so fixtures may use e.g. sort without stubbing it —
// but a fixture stub, when present, always wins).
func (l *fixtureLoader) importFixture(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path))); err == nil {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.types, nil
	}
	if l.gc == nil {
		l.gc = importer.ForCompiler(l.fset, "gc", nil)
	}
	return l.gc.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
