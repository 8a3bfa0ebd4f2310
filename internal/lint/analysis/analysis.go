// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: just enough Analyzer / Pass /
// Diagnostic structure for the coaxlint suite to be written in the standard
// shape (and ported to the real framework wholesale if x/tools ever becomes
// a dependency). It adds the two pieces coaxlint needs that the stdlib does
// not provide: line-anchored //lint: suppression directives with mandatory
// justifications, and a cross-package object fact store filled in
// dependency order by the Driver. The flow-sensitive analyzers share the
// rest of their machinery here too: the function walk (Pass.Funcs), the
// CFG cache (Pass.CFG), the dataflow engine (Forward), and the
// interprocedural summary fixpoint (Summarize). A driver that compiled the
// packages also hands every pass the compiler's heap allocation sites
// (Pass.HeapSites).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, baselines, and
	// //lint:ignore directives.
	Name string
	// Doc is the one-paragraph description shown by the driver's -help.
	Doc string
	// Directives lists extra suppression directive names honoured for this
	// analyzer beside the generic "ignore" form; e.g. the determinism
	// analyzer accepts //lint:deterministic <why>.
	Directives []string
	// Annotations lists directive names the analyzer reads as declarations
	// rather than suppressions (e.g. unitcheck's //lint:unit <dim>). They
	// never silence a diagnostic; listing them here only tells the
	// directive validator the name is legitimate.
	Annotations []string
	// FactsOnly marks analyzers that never report: they only compute facts
	// consumed by later analyzers (the driver still runs them everywhere).
	FactsOnly bool
	// UsesHeapSites marks analyzers that read Pass.HeapSites, so a driver
	// that does not compile as a matter of course (the fixture harness)
	// knows to run the compiler for them.
	UsesHeapSites bool
	// Run performs the check on one package.
	Run func(*Pass) error
}

// Diagnostic is one reported finding, position-resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Fix, when non-nil, is a machine-applicable resolution the -fix
	// driver can apply (ApplyFixes). Fixes ride along through -json.
	Fix *SuggestedFix
}

// String formats the diagnostic the way gc and go vet do.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ModulePath is the import-path prefix of packages whose source the
	// driver loaded (facts exist only for those); empty means every
	// analyzed package is module-local (the fixture loader).
	ModulePath string
	// Facts is shared across all passes of a run; the driver processes
	// packages in dependency order, so facts for imports are already
	// present when a package is analyzed.
	Facts *FactStore
	// FactsPartial marks runs that could not compute facts for the whole
	// module (go vet hands the tool one package at a time, with imports as
	// export data only). Fact-consuming analyzers then give
	// out-of-package functions the benefit of the doubt instead of
	// flagging every unknown call.
	FactsPartial bool
	// HeapSites are the heap allocations the compiler's escape analysis
	// reported for the run's source files, sorted by position; nil when
	// the driver did not compile them (go vet's tool protocol).
	HeapSites []HeapSite

	report     func(Diagnostic)
	directives map[string][]directive  // filename -> directives, line-keyed
	cfgs       map[*ast.BlockStmt]*CFG // see CFG; a Driver shares one across its run
}

// HeapSite is one heap allocation the compiler reports under
// -gcflags=-m: an expression that "escapes to heap" or a variable "moved
// to heap". Message is the compiler's wording, without the position.
type HeapSite struct {
	Pos     token.Pos
	Message string
}

// NewPass assembles a pass; report receives every non-suppressed
// diagnostic.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, modulePath string, facts *FactStore, report func(Diagnostic)) *Pass {
	p := &Pass{
		Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info,
		ModulePath: modulePath, Facts: facts, report: report,
		directives: map[string][]directive{}, cfgs: map[*ast.BlockStmt]*CFG{},
	}
	for _, f := range files {
		fname := fset.Position(f.Pos()).Filename
		p.directives[fname] = collectDirectives(fset, f)
	}
	return p
}

// directive is one parsed //lint:<name> <args...> comment.
type directive struct {
	line       int
	standalone bool // on a line of its own (not trailing code)
	name       string
	args       string // remainder after the name, space-trimmed
}

// ParseDirective parses one comment's text as a //lint: directive. ok is
// false when the comment is not a lint directive at all (ordinary comment,
// or a different marker). When it is one, the name must be a non-empty run
// of lowercase letters terminated by end-of-comment or a space; anything
// else — `//lint:`, `//lint: ignore` (space before the name), `//lint:Unit`
// — returns a non-nil error so drivers can diagnose the malformed marker
// instead of silently treating it as prose.
func ParseDirective(text string) (name, args string, ok bool, err error) {
	rest, isDirective := strings.CutPrefix(text, "//lint:")
	if !isDirective {
		return "", "", false, nil
	}
	i := 0
	for i < len(rest) && rest[i] >= 'a' && rest[i] <= 'z' {
		i++
	}
	name = rest[:i]
	if name == "" {
		return "", "", true, fmt.Errorf("malformed //lint: directive: missing name")
	}
	if i < len(rest) && rest[i] != ' ' {
		return name, "", true, fmt.Errorf("malformed //lint: directive: name must be lowercase letters followed by a space, got %q", rest)
	}
	return name, strings.TrimSpace(rest[i:]), true, nil
}

// codeLines records which lines of a file hold code (non-comment nodes), so
// a directive can be classified as trailing code or standalone.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		if n.Pos().IsValid() {
			lines[fset.Position(n.Pos()).Line] = true
		}
		return true
	})
	return lines
}

// collectDirectives scans a file's comments for well-formed //lint:
// markers. A directive trailing code covers that line; a standalone
// directive covers the line below it. Malformed directives are dropped
// here; CheckDirectives reports them.
func collectDirectives(fset *token.FileSet, f *ast.File) []directive {
	code := codeLines(fset, f)
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name, args, ok, err := ParseDirective(c.Text)
			if !ok || err != nil {
				continue
			}
			line := fset.Position(c.Pos()).Line
			out = append(out, directive{
				line:       line,
				standalone: !code[line],
				name:       name,
				args:       args,
			})
		}
	}
	return out
}

// CheckDirectives validates every //lint: comment in the files: a parse
// error, an unknown directive name, or an ignore directive that names no
// known analyzer each produce a diagnostic (analyzer "directive"). known
// holds the legitimate directive names ("ignore" plus every analyzer's
// Directives and Annotations); analyzers holds the valid //lint:ignore
// targets. Malformed markers must never be silently accepted — a typo in a
// suppression would otherwise reintroduce the finding it meant to justify.
func CheckDirectives(fset *token.FileSet, files []*ast.File, known, analyzers map[string]bool) []Diagnostic {
	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: "directive",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, args, ok, err := ParseDirective(c.Text)
				if !ok {
					continue
				}
				if err != nil {
					report(c.Pos(), "%v", err)
					continue
				}
				if !known[name] {
					report(c.Pos(), "unknown directive //lint:%s", name)
					continue
				}
				if name == "ignore" {
					target, _, _ := strings.Cut(args, " ")
					if !analyzers[target] {
						report(c.Pos(), "//lint:ignore must name an analyzer (got %q)", target)
					}
				}
			}
		}
	}
	return out
}

// InModule reports whether pkg belongs to the analyzed module (and was
// therefore source-loaded, so facts exist for its objects).
func (p *Pass) InModule(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == p.ModulePath || p.ModulePath == "" ||
		strings.HasPrefix(path, p.ModulePath+"/")
}

// DirectiveOn returns the arguments of a //lint:<name> directive covering
// pos's line — trailing the code on that line, or standalone on the line
// directly above — if one exists. Annotation-style directives (such as
// //lint:unit) are read through this; they do not suppress anything.
func (p *Pass) DirectiveOn(pos token.Pos, name string) (args string, ok bool) {
	position := p.Fset.Position(pos)
	for _, d := range p.directives[position.Filename] {
		if d.name != name {
			continue
		}
		if d.line == position.Line || (d.standalone && d.line == position.Line-1) {
			return d.args, true
		}
	}
	return "", false
}

// Reportf reports a diagnostic at pos unless a suppression directive covers
// that line. A directive suppresses when it sits on the diagnostic's line
// (trailing the code) or standalone on the line directly above, names this
// analyzer (//lint:ignore <name> or one of the analyzer's dedicated
// directives), and carries a non-empty justification; a matching directive
// without a justification is itself reported, keeping annotations honest.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportWithFix(pos, nil, format, args...)
}

// ReportWithFix is Reportf carrying a suggested fix; the same suppression
// directives apply (a suppressed diagnostic's fix is never offered).
func (p *Pass) ReportWithFix(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	position := p.Fset.Position(pos)
	if d, ok := p.suppression(position); ok {
		if d.args == "" {
			p.report(Diagnostic{
				Pos:      position,
				Analyzer: p.Analyzer.Name,
				Message:  fmt.Sprintf("suppression directive //lint:%s needs a justification", d.name),
			})
		}
		return
	}
	p.report(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// Suppressed reports whether a justified suppression directive covers
// pos, exactly as Reportf decides — for analyzers that fold a finding into
// a summary instead of reporting it.
func (p *Pass) Suppressed(pos token.Pos) bool {
	d, ok := p.suppression(p.Fset.Position(pos))
	return ok && d.args != ""
}

// suppression finds the directive naming this analyzer on position's line
// or standalone above it; an ignore directive's args come back without the
// analyzer name.
func (p *Pass) suppression(position token.Position) (directive, bool) {
	for _, d := range p.directives[position.Filename] {
		if d.line != position.Line && !(d.standalone && d.line == position.Line-1) {
			continue
		}
		if d.name == "ignore" {
			if rest, ok := strings.CutPrefix(d.args+" ", p.Analyzer.Name+" "); ok {
				d.args = strings.TrimSpace(rest)
				return d, true
			}
		}
		if slices.Contains(p.Analyzer.Directives, d.name) {
			return d, true
		}
	}
	return directive{}, false
}

// FactStore holds per-object facts shared across a run. Keys are
// types.Object identities, which the loader keeps stable by type-checking
// every module package exactly once against shared dependency packages.
type FactStore struct {
	m map[types.Object]map[string]any
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{m: map[types.Object]map[string]any{}} }

// Set records a fact about obj under key.
func (s *FactStore) Set(obj types.Object, key string, v any) {
	facts, ok := s.m[obj]
	if !ok {
		facts = map[string]any{}
		s.m[obj] = facts
	}
	facts[key] = v
}

// Get retrieves the fact recorded about obj under key.
func (s *FactStore) Get(obj types.Object, key string) (any, bool) {
	v, ok := s.m[obj][key]
	return v, ok
}

// Bool retrieves a boolean fact; absent facts are false.
func (s *FactStore) Bool(obj types.Object, key string) bool {
	v, ok := s.Get(obj, key)
	b, isBool := v.(bool)
	return ok && isBool && b
}
