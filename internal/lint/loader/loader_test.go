package loader

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a throwaway module for load-error tests.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadReportsPerPackageErrors plants failures in two packages of one
// module and demands the loader name each broken package with a file
// position, rather than dying on the first with a bare module-level error.
func TestLoadReportsPerPackageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	dir := writeTree(t, map[string]string{
		"go.mod": "module brokenmod\n\ngo 1.21\n",
		"ok/ok.go": `package ok

func Fine() int { return 1 }
`,
		"syntaxbad/bad.go": `package syntaxbad

func Broken( {
`,
		"otherbad/other.go": `package otherbad

func AlsoBroken() int { return }
`,
	})

	_, err := Load(dir, "./...")
	if err == nil {
		t.Fatal("want load error for module with broken packages, got nil")
	}
	msg := err.Error()
	for _, want := range []string{"brokenmod/syntaxbad", "brokenmod/otherbad", "bad.go:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("load error missing %q:\n%s", want, msg)
		}
	}
	var pe *PackageError
	if !errors.As(err, &pe) {
		t.Errorf("load error does not unwrap to *PackageError: %v", err)
	} else if pe.Pos == "" {
		t.Errorf("first PackageError has no position: %+v", pe)
	}
}

// TestLoadOverlayParseError breaks a good on-disk file via the overlay:
// the failure must come back as a positioned per-package error naming the
// on-disk file, not the overlay's substitute for it.
func TestLoadOverlayParseError(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	dir := writeTree(t, map[string]string{
		"go.mod": "module overlaymod\n\ngo 1.21\n",
		"p/p.go": `package p

func Fine() int { return 1 }
`,
	})

	overlay := map[string][]byte{
		filepath.Join(dir, "p", "p.go"): []byte("package p\n\nfunc Broken( {\n"),
	}
	_, err := LoadOverlay(dir, overlay, "./...")
	if err == nil {
		t.Fatal("want load error for overlay with syntax error, got nil")
	}
	var pe *PackageError
	if !errors.As(err, &pe) {
		t.Fatalf("load error does not unwrap to *PackageError: %v", err)
	}
	if pe.ImportPath != "overlaymod/p" {
		t.Errorf("PackageError.ImportPath = %q, want overlaymod/p", pe.ImportPath)
	}
	if want := filepath.Join(dir, "p", "p.go") + ":"; !strings.HasPrefix(pe.Pos, want) {
		t.Errorf("PackageError.Pos = %q, want a position in %s", pe.Pos, want)
	}
}

// TestLoadHealthyModule guards the non-error path: a clean module loads
// with its packages in dependency order, no error, and the compiler's heap
// sites from the same go list call.
func TestLoadHealthyModule(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	dir := writeTree(t, map[string]string{
		"go.mod": "module cleanmod\n\ngo 1.21\n",
		"a/a.go": `package a

const N = 3
`,
		"b/b.go": `package b

import "cleanmod/a"

var sink *int

func M() int { x := a.N * 2; sink = &x; return x }
`,
	})

	prog, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("load clean module: %v", err)
	}
	var paths []string
	for _, p := range prog.Packages {
		paths = append(paths, p.ImportPath)
		if len(p.TypeErrors) > 0 {
			t.Errorf("%s: unexpected type errors: %v", p.ImportPath, p.TypeErrors)
		}
	}
	got := strings.Join(paths, ",")
	if got != "cleanmod/a,cleanmod/b" {
		t.Errorf("packages = %s, want cleanmod/a,cleanmod/b (deps before importers)", got)
	}
	var sites []string
	for _, s := range prog.HeapSites {
		sites = append(sites, fmt.Sprintf("%s: %s", prog.Fset.Position(s.Pos), s.Message))
	}
	want := filepath.Join(dir, "b", "b.go") + ":7:16: moved to heap: x"
	if len(sites) != 1 || sites[0] != want {
		t.Errorf("heap sites = %q, want [%q]", sites, want)
	}
}
