package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Driver applies an analyzer suite package by package, imports before
// importers, sharing one fact store, one CFG cache and the compiler's heap
// sites across the run. The standalone linter, the go vet tool and the
// fixture harness each drive their packages through one.
type Driver struct {
	analyzers    []*Analyzer
	fset         *token.FileSet
	modulePath   string
	factsPartial bool
	heapSites    []HeapSite
	facts        *FactStore
	cfgs         map[*ast.BlockStmt]*CFG
	// known holds the legitimate //lint: directive names, names the valid
	// //lint:ignore targets (see CheckDirectives).
	known, names map[string]bool
}

// NewDriver starts a run of the analyzers, in order, over packages parsed
// into fset. modulePath, factsPartial and heapSites (sorted by position)
// become every pass's ModulePath, FactsPartial and HeapSites.
func NewDriver(analyzers []*Analyzer, fset *token.FileSet, modulePath string, factsPartial bool, heapSites []HeapSite) *Driver {
	d := &Driver{
		analyzers: analyzers, fset: fset, modulePath: modulePath, factsPartial: factsPartial,
		heapSites: heapSites, facts: NewFactStore(), cfgs: map[*ast.BlockStmt]*CFG{},
		known: map[string]bool{"ignore": true}, names: map[string]bool{},
	}
	for _, a := range analyzers {
		d.names[a.Name] = true
		for _, n := range a.Directives {
			d.known[n] = true
		}
		for _, n := range a.Annotations {
			d.known[n] = true
		}
	}
	return d
}

// Package runs every analyzer over one type-checked package. With report
// set it returns the package's findings: malformed or unknown //lint:
// directives, then what each analyzer that is not FactsOnly reports.
// Without it (a dependency loaded only for its facts) the analyzers still
// run and record facts, and nothing is returned.
func (d *Driver) Package(files []*ast.File, pkg *types.Package, info *types.Info, report bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	if report {
		diags = CheckDirectives(d.fset, files, d.known, d.names)
	}
	for _, a := range d.analyzers {
		keep := report && !a.FactsOnly
		pass := NewPass(a, d.fset, files, pkg, info, d.modulePath, d.facts, func(diag Diagnostic) {
			if keep {
				diags = append(diags, diag)
			}
		})
		pass.FactsPartial = d.factsPartial
		pass.HeapSites = d.heapSites
		pass.cfgs = d.cfgs
		if err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	return diags, nil
}

// Func is one function declaration with a body, and its object.
type Func struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// Funcs lists the package's function declarations that have a body and a
// *types.Func object, in file order.
func (p *Pass) Funcs() []Func {
	var out []Func
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				out = append(out, Func{Decl: fd, Obj: obj})
			}
		}
	}
	return out
}

// CFG returns the control-flow graph of a function body, declared or
// literal. It is built once per run and shared by every analyzer, so
// callers must not mutate it.
func (p *Pass) CFG(body *ast.BlockStmt) *CFG {
	g := p.cfgs[body]
	if g == nil {
		g = BuildCFG(body)
		p.cfgs[body] = g
	}
	return g
}

// Summarize computes a summary for each of fns and records it as the
// function's fact under key, in rounds, until a round changes no fact. A
// round visits fns in order and sees the facts earlier visits recorded,
// so helper summaries reach their callers whatever the declaration order.
// A fact is replaced only when equal says the new summary differs from
// the recorded one (the zero S when absent): a summary that stays equal
// keeps the value that first established it.
//
// Summaries that only grow along call edges converge within len(fns)+1
// rounds: each round carries every change at least one call edge further,
// and no call path without repeats is longer than len(fns)-1 edges. A
// summary still changing after that is an analyzer bug, returned as an
// error instead of findings computed from unconverged facts.
func Summarize[S any](p *Pass, key string, fns []Func, summarize func(*Pass, Func) S, equal func(a, b S) bool) error {
	for round := 1; ; round++ {
		changed := false
		for _, fn := range fns {
			sum := summarize(p, fn)
			v, _ := p.Facts.Get(fn.Obj, key)
			cur, _ := v.(S)
			if !equal(sum, cur) {
				p.Facts.Set(fn.Obj, key, sum)
				changed = true
			}
		}
		if !changed {
			return nil
		}
		if round > len(fns) {
			return fmt.Errorf("%s: %q summaries in package %s still changing after %d rounds over %d functions",
				p.Analyzer.Name, key, p.Pkg.Path(), round, len(fns))
		}
	}
}
