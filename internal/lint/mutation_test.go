package lint_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
	"coaxial/internal/lint/loader"
)

// concMutation plants one bug into a real source file via the loader's
// overlay, for a mutation suite to demand that its analyzer catches it
// at the planted position.
type concMutation struct {
	name string
	// file is repo-relative; old must occur exactly once and is replaced
	// by new.
	file     string
	old, new string
	// second, when non-empty, is a second replacement in the same file.
	second [2]string
	// patterns lists the packages to load (the mutated one last), so
	// overlay-added imports resolve from source.
	patterns []string
	// want lists substrings that must each appear in at least one of the
	// analyzer's diagnostics in file.
	want []string
	// atPlant, when set, also requires each wanted diagnostic to sit on a
	// line of new: for findings reported at the planted statement itself.
	atPlant bool
}

// mutationRoot returns the repository root; the mutation suites shell
// out to go list, so -short skips them.
func mutationRoot(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("mutation suite shells out to go list per case")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// runMutations applies each case in a subtest and requires every wanted
// substring among the fresh analyzer's diagnostics in the mutated file.
func runMutations(t *testing.T, newAnalyzer func() *analysis.Analyzer, cases []concMutation) {
	root := mutationRoot(t)
	for _, m := range cases {
		t.Run(m.name, func(t *testing.T) {
			a := newAnalyzer()
			diags, _, text := mutateAndLint(t, root, a, m)
			first, last := 1, strings.Count(string(text), "\n")+1
			if m.atPlant {
				first = strings.Count(string(text[:strings.Index(string(text), m.new)]), "\n") + 1
				last = first + strings.Count(m.new, "\n")
			}
			var inFile []analysis.Diagnostic
			for _, d := range diags {
				if d.Analyzer == a.Name && strings.HasSuffix(d.Pos.Filename, m.file) && d.Pos.Line >= first && d.Pos.Line <= last {
					inFile = append(inFile, d)
				}
			}
			for _, want := range m.want {
				if !slices.ContainsFunc(inFile, func(d analysis.Diagnostic) bool { return strings.Contains(d.Message, want) }) {
					t.Errorf("mutation not caught: want a %s diagnostic containing %q in %s; got %d in file:\n%s",
						a.Name, want, m.file, len(inFile), diagLines(inFile))
				}
			}
			if t.Failed() {
				t.Logf("all diagnostics:\n%s", diagLines(diags))
			}
		})
	}
}

// mutateAndLint applies one mutation, runs the analyzer alone over the
// overlay, and returns the diagnostics plus the mutated file's path and
// contents (for applying fixes).
func mutateAndLint(t *testing.T, root string, a *analysis.Analyzer, m concMutation) ([]analysis.Diagnostic, string, []byte) {
	t.Helper()
	path := filepath.Join(root, m.file)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(orig)
	for _, edit := range [][2]string{{m.old, m.new}, m.second} {
		if edit[0] == "" {
			continue
		}
		if n := strings.Count(text, edit[0]); n != 1 {
			t.Fatalf("mutation anchor occurs %d times in %s, want 1:\n%s", n, m.file, edit[0])
		}
		text = strings.Replace(text, edit[0], edit[1], 1)
	}
	prog, err := loader.LoadOverlay(root, map[string][]byte{path: []byte(text)}, m.patterns...)
	if err != nil {
		t.Fatalf("load with mutation: %v", err)
	}
	diags, err := lint.Run(prog, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	return diags, path, []byte(text)
}

func diagLines(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String() + "\n")
	}
	return b.String()
}
