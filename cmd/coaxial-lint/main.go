// Command coaxial-lint runs the coaxlint analyzer suite (internal/lint):
// static enforcement of the simulator's determinism, counter-hygiene,
// and observer-purity invariants (DESIGN.md §6).
//
// Standalone over package patterns (the usual way):
//
//	go run ./cmd/coaxial-lint ./...
//
// As a go vet tool (per-package, driven by the build system):
//
//	go build -o coaxial-lint ./cmd/coaxial-lint
//	go vet -vettool=$PWD/coaxial-lint ./...
//
// In vettool mode two analyzers run degraded. go vet type-checks one
// package at a time from export data, so observers has no facts about
// other packages' function bodies and allows calls whose purity is
// unknown rather than flagging them. And go vet hands the tool export
// data, not compiler output, so alloccheck has none of the compiler's
// escape-analysis sites and checks only the allocations it recognizes in
// the source. The standalone mode, which CI runs, loads the whole module
// from source — one go list call that also compiles it with -m — and
// applies the full rules.
//
// A baseline file (-baseline, default .coaxlint.baseline when present)
// records pre-existing findings so CI fails only on new violations;
// regenerate it with -write-baseline after deliberate changes.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
	"coaxial/internal/lint/loader"
)

func main() {
	// go vet probes its tool with -V=full before handing it a .cfg file;
	// answer the protocol before normal flag parsing.
	for _, arg := range os.Args[1:] {
		if arg == "-V=full" || arg == "--V=full" {
			printVersion()
			return
		}
		if arg == "-flags" || arg == "--flags" {
			fmt.Println("[]")
			return
		}
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(vettoolMode(os.Args[1]))
	}

	var (
		baselinePath  = flag.String("baseline", "", "baseline file of accepted findings (default .coaxlint.baseline when it exists)")
		writeBaseline = flag.Bool("write-baseline", false, "rewrite the baseline with the current findings and exit")
		listChecks    = flag.Bool("checks", false, "list the analyzers and exit")
		jsonOut       = flag.Bool("json", false, "emit findings as a JSON array (stable order: file, line, column, analyzer)")
		packagesFlag  = flag.String("packages", "", "comma-separated import-path patterns (trailing /... wildcards) restricting which packages report; the whole module is still loaded, so cross-package facts stay exact")
		applyFix      = flag.Bool("fix", false, "apply the suggested fixes attached to findings, then report only what remains unfixable")
	)
	flag.Parse()

	suite := lint.Suite()
	if *listChecks {
		for _, a := range suite {
			if a.FactsOnly {
				continue
			}
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	prog, err := loader.Load(cwd, patterns...)
	if err != nil {
		fatal(err)
	}
	for _, pkg := range prog.Packages {
		if pkg.Target && len(pkg.TypeErrors) > 0 {
			fatal(fmt.Errorf("%s: type errors (does the package build?): %v", pkg.ImportPath, pkg.TypeErrors[0]))
		}
	}
	if *packagesFlag != "" {
		if err := scopeTargets(prog, *packagesFlag); err != nil {
			fatal(err)
		}
	}

	diags, err := lint.Run(prog, suite)
	if err != nil {
		fatal(err)
	}

	if *baselinePath == "" {
		if _, err := os.Stat(".coaxlint.baseline"); err == nil {
			*baselinePath = ".coaxlint.baseline"
		}
	}
	if *writeBaseline {
		path := *baselinePath
		if path == "" {
			path = ".coaxlint.baseline"
		}
		if err := writeBaselineFile(path, diags); err != nil {
			fatal(err)
		}
		fmt.Printf("coaxial-lint: wrote %d finding(s) to %s\n", len(diags), path)
		return
	}

	baseline := map[string]bool{}
	if *baselinePath != "" {
		baseline, err = readBaselineFile(*baselinePath)
		if err != nil {
			fatal(err)
		}
	}

	var fresh []analysis.Diagnostic
	for _, d := range diags {
		if baseline[baselineKey(d)] {
			continue
		}
		fresh = append(fresh, d)
	}
	if *applyFix {
		n, err := analysis.ApplyFixes(fresh, os.ReadFile, func(name string, b []byte) error {
			return os.WriteFile(name, b, 0o644)
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("coaxial-lint: applied %d edit(s)\n", n)
		// Findings whose fix was just applied are resolved; only the
		// unfixable remainder still fails the run.
		var rest []analysis.Diagnostic
		for _, d := range fresh {
			if d.Fix == nil {
				rest = append(rest, d)
			}
		}
		fresh = rest
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, fresh); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range fresh {
			fmt.Println(d)
		}
	}
	if len(fresh) > 0 {
		fmt.Fprintf(os.Stderr, "coaxial-lint: %d finding(s)\n", len(fresh))
		os.Exit(1)
	}
}

// jsonDiagnostic is the -json wire form of one finding. Diagnostics arrive
// already sorted (file, line, column, analyzer), so the output is stable
// across runs for diffing and for the CI problem matcher. Fix, when
// present, carries byte-offset edits a tool can apply directly (the same
// shape ApplyFixes consumes).
type jsonDiagnostic struct {
	File     string                 `json:"file"`
	Line     int                    `json:"line"`
	Column   int                    `json:"column"`
	Analyzer string                 `json:"analyzer"`
	Message  string                 `json:"message"`
	Fix      *analysis.SuggestedFix `json:"fix,omitempty"`
}

// writeJSON emits the findings as one indented JSON array ([] when clean).
func writeJSON(w io.Writer, diags []analysis.Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Fix:      d.Fix,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// scopeTargets narrows reporting to the packages matching the -packages
// patterns: exact import paths, or prefix patterns with a trailing "/...".
// Dependencies stay loaded (facts remain whole-module exact); only the
// Target bit — which gates reporting — changes. An unmatched pattern is an
// error, catching typos that would otherwise silently lint nothing.
func scopeTargets(prog *loader.Program, patterns string) error {
	pats := strings.Split(patterns, ",")
	matched := make([]bool, len(pats))
	match := func(path string) bool {
		ok := false
		for i, p := range pats {
			p = strings.TrimSpace(p)
			if p == path || p == "..." ||
				(strings.HasSuffix(p, "/...") && (path == strings.TrimSuffix(p, "/...") ||
					strings.HasPrefix(path, strings.TrimSuffix(p, "...")))) {
				matched[i] = true
				ok = true
			}
		}
		return ok
	}
	for _, pkg := range prog.Packages {
		if pkg.Target && !match(pkg.ImportPath) {
			pkg.Target = false
		}
	}
	for i, hit := range matched {
		if !hit {
			return fmt.Errorf("-packages pattern %q matched no loaded package", strings.TrimSpace(pats[i]))
		}
	}
	return nil
}

// printVersion answers `-V=full` in the form cmd/go's toolID parser accepts:
// "name version devel buildID=<hash>". Hashing the executable itself keys go
// vet's result cache on the tool's actual contents, so editing an analyzer
// invalidates cached vet results.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			id = fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	fmt.Printf("coaxial-lint version devel buildID=%s\n", id)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coaxial-lint:", err)
	os.Exit(2)
}

// baselineKey identifies a finding stably across unrelated edits: the line
// number is deliberately excluded so code motion above a baselined site
// does not resurrect it.
func baselineKey(d analysis.Diagnostic) string {
	return fmt.Sprintf("%s|%s|%s", d.Analyzer, d.Pos.Filename, d.Message)
}

func writeBaselineFile(path string, diags []analysis.Diagnostic) error {
	var b strings.Builder
	b.WriteString("# coaxial-lint baseline: accepted pre-existing findings, one per line.\n")
	b.WriteString("# Format: analyzer|file|message. Regenerate with -write-baseline.\n")
	for _, d := range diags {
		b.WriteString(baselineKey(d))
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func readBaselineFile(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out[line] = true
	}
	return out, sc.Err()
}
