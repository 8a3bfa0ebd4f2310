package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"

	"coaxial/internal/lint/analysis"
)

// CounterConfig parameterizes the counter-hygiene analyzer.
type CounterConfig struct {
	// CounterTypes lists the stat-accumulator struct types as
	// "pkgpath.TypeName" (e.g. "coaxial/internal/dram.Counters"). Their
	// fields — and whole values of these types — may only be mutated by
	// accumulation (+=, ++, |=) or by the type's own methods; a plain `=`
	// anywhere else is a mid-window reset that silently corrupts measured
	// statistics.
	CounterTypes []string
	// ResultType names the aggregated result struct ("pkgpath.TypeName",
	// e.g. "coaxial/internal/sim.Result") whose every field must reach the
	// golden-corpus encoder: unexported fields and `json:"-"` /
	// `,omitempty` tags would silently drop a metric from drift detection.
	ResultType string
	// ExemptPrefixes are case-insensitive function-name prefixes allowed
	// to assign counters directly (constructors and sanctioned resets).
	// Nil defaults to reset/new/init/clear.
	ExemptPrefixes []string
}

// NewCounters returns the counter-hygiene analyzer.
func NewCounters(cfg CounterConfig) *analysis.Analyzer {
	if cfg.ExemptPrefixes == nil {
		cfg.ExemptPrefixes = []string{"reset", "new", "init", "clear"}
	}
	counterSet := map[string]bool{}
	for _, t := range cfg.CounterTypes {
		counterSet[t] = true
	}
	a := &analysis.Analyzer{
		Name: "counters",
		Doc:  "stat counters accumulate (+=/methods) and reset only in Reset/New functions; result fields must stay visible to the golden corpus encoder",
	}
	a.Run = func(pass *analysis.Pass) error {
		runCounterMutations(pass, counterSet, cfg.ExemptPrefixes)
		runResultCoverage(pass, cfg.ResultType)
		return nil
	}
	return a
}

// typeQName renders a (possibly pointer) named type as "pkgpath.Name".
func typeQName(t types.Type) string {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// runCounterMutations flags non-accumulating writes to counter types.
func runCounterMutations(pass *analysis.Pass, counterSet map[string]bool, exempt []string) {
	info := pass.TypesInfo
	for _, fn := range pass.Funcs() {
		fd := fn.Decl
		if funcExemptFromCounterRules(fn.Obj, counterSet, exempt) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				checkCounterAssign(pass, fd, x, counterSet)
			case *ast.IncDecStmt:
				if x.Tok == token.DEC && counterTarget(info, x.X, counterSet) != "" {
					pass.Reportf(x.Pos(),
						"counter %s decremented: stat counters only accumulate", counterTarget(info, x.X, counterSet))
				}
			}
			return true
		})
	}
}

// funcExemptFromCounterRules: methods of a counter type implement it, and
// constructors/resets legitimately zero state.
func funcExemptFromCounterRules(fn *types.Func, counterSet map[string]bool, exempt []string) bool {
	name := strings.ToLower(fn.Name())
	for _, p := range exempt {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && counterSet[typeQName(recv.Type())]
}

// counterTarget returns the counter type a write expression touches
// ("pkg.Type" or "pkg.Type.Field"), or "".
func counterTarget(info *types.Info, lhs ast.Expr, counterSet map[string]bool) string {
	lhs = ast.Unparen(lhs)
	// Whole-value (or through-pointer) assignment to a counter type.
	if q := typeQName(info.TypeOf(lhs)); counterSet[q] {
		return q
	}
	// Field of a counter struct.
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		if q := typeQName(info.TypeOf(sel.X)); counterSet[q] {
			return q + "." + sel.Sel.Name
		}
	}
	return ""
}

// checkCounterAssign flags `=` (and non-additive compound) assignments to
// counter state reachable from outside a local snapshot.
func checkCounterAssign(pass *analysis.Pass, fd *ast.FuncDecl, s *ast.AssignStmt, counterSet map[string]bool) {
	info := pass.TypesInfo
	switch s.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.DEFINE:
		return // accumulation, or a fresh local
	}
	for _, lhs := range s.Lhs {
		target := counterTarget(info, lhs, counterSet)
		if target == "" {
			continue
		}
		// Assembling a snapshot in a function-local value (e.g. collect()
		// summing per-backend counters into a local) is fine: the local is
		// not live measurement state. Pointer-typed roots are not exempt —
		// a local alias still reaches shared state.
		if id := rootIdent(lhs); id != nil {
			if obj := objOf(info, id); declaredWithin(obj, fd) {
				if _, isPtr := obj.Type().Underlying().(*types.Pointer); !isPtr {
					continue
				}
			}
		}
		what := "reset/reassigned"
		if s.Tok != token.ASSIGN {
			what = fmt.Sprintf("mutated with %s", s.Tok)
		}
		pass.Reportf(lhs.Pos(),
			"counter %s %s outside a Reset/New function: stat counters only accumulate mid-window (+= or the counter's own methods)",
			target, what)
	}
}

// runResultCoverage checks, in the package declaring ResultType, that every
// field (recursively through module-declared struct fields) is visible to
// the golden corpus's JSON encoder.
func runResultCoverage(pass *analysis.Pass, resultType string) {
	if resultType == "" {
		return
	}
	dot := strings.LastIndex(resultType, ".")
	if dot < 0 || resultType[:dot] != pass.Pkg.Path() {
		return
	}
	obj := pass.Pkg.Scope().Lookup(resultType[dot+1:])
	if obj == nil {
		return
	}
	named, ok := types.Unalias(obj.Type()).(*types.Named)
	if !ok {
		return
	}
	seen := map[*types.Named]bool{}
	checkEncoderVisibility(pass, named, obj.Pos(), resultType[dot+1:], seen)
}

func checkEncoderVisibility(pass *analysis.Pass, named *types.Named, pos token.Pos, path string, seen map[*types.Named]bool) {
	if seen[named] {
		return
	}
	seen[named] = true
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fieldPath := path + "." + f.Name()
		fpos := f.Pos()
		if f.Pkg() != pass.Pkg {
			fpos = pos // report nested foreign fields at the embedding site
		}
		if !f.Exported() {
			pass.Reportf(fpos,
				"%s is unexported: the golden corpus encoder (encoding/json) cannot see it, so drift in this metric goes undetected", fieldPath)
			continue
		}
		tag := reflect.StructTag(st.Tag(i)).Get("json")
		if tag == "-" {
			pass.Reportf(fpos, "%s is tagged json:\"-\": it is hidden from the golden corpus encoder", fieldPath)
			continue
		}
		if strings.Contains(tag, ",omitempty") {
			pass.Reportf(fpos,
				"%s is tagged omitempty: a zero value vanishes from the golden corpus, so drift to zero goes undetected", fieldPath)
			continue
		}
		if sub := namedOf(f.Type()); sub != nil && pass.InModule(sub.Obj().Pkg()) {
			checkEncoderVisibility(pass, sub, fpos, fieldPath, seen)
		}
	}
}
