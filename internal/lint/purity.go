package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"coaxial/internal/lint/analysis"
)

// writeFreeFact is the fact key under which the purity pass records, for
// every function and method in a module package, whether its body provably
// writes nothing: no assignment, increment, send, or mutating builtin
// whose target is anything but a plain local identifier, and no call to a
// function that is not itself write-free. Later analyzers (phaseiso,
// observers) use the fact to allow calls like (*memreq.Request).QueueDelay
// from contexts where mutation is forbidden.
//
// Calls outside the module (the standard library) are assumed write-free:
// observers and phase workers have no business handing simulator state to
// the stdlib for mutation, and flagging fmt.Sprintf would drown the signal.
const writeFreeFact = "writeFree"

// NewPurity returns the facts-only pass computing writeFree for every
// function in the analyzed package. It must run before any analyzer that
// consumes the fact (the suite lists it first).
func NewPurity() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name:      "purity",
		Doc:       "computes write-free facts consumed by phaseiso and observers",
		FactsOnly: true,
	}
	a.Run = runPurity
	return a
}

func runPurity(pass *analysis.Pass) error {
	fns := pass.Funcs()

	// Optimistic fixpoint: assume every package-local function write-free,
	// re-evaluate until nothing more is demoted. This converges (demotions
	// are monotone) and handles recursion and any declaration order.
	assumed := map[*types.Func]bool{}
	for _, fn := range fns {
		assumed[fn.Obj] = true
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if !assumed[fn.Obj] {
				continue
			}
			if !bodyWriteFree(pass, fn.Decl, assumed) {
				assumed[fn.Obj] = false
				changed = true
			}
		}
	}
	for _, fn := range fns {
		pass.Facts.Set(fn.Obj, writeFreeFact, assumed[fn.Obj])
	}
	return nil
}

// bodyWriteFree evaluates one function body under the current same-package
// assumptions.
func bodyWriteFree(pass *analysis.Pass, fd *ast.FuncDecl, assumed map[*types.Func]bool) bool {
	info := pass.TypesInfo
	pure := true
	fail := func() { pure = false }

	// localPlainIdent reports whether e is a bare identifier bound inside
	// this function (parameters and results included) — the only write
	// target a write-free function may have.
	localPlainIdent := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		if id.Name == "_" {
			return true
		}
		return declaredWithin(objOf(info, id), fd)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !pure {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if !localPlainIdent(lhs) {
					fail()
				}
			}
		case *ast.IncDecStmt:
			if !localPlainIdent(x.X) {
				fail()
			}
		case *ast.SendStmt:
			fail()
		case *ast.GoStmt:
			fail()
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if e != nil && !localPlainIdent(e) {
						fail()
					}
				}
			}
		case *ast.CallExpr:
			switch builtinName(info, x) {
			case "len", "cap", "min", "max", "new", "make", "append",
				"real", "imag", "complex", "panic", "recover":
				return true
			case "":
				// Not a builtin; resolved below.
			default:
				// copy, delete, clear, print, println: mutating or
				// observable.
				fail()
				return false
			}
			callee := calleeOf(info, x)
			if callee == nil {
				// Dynamic call: unknowable, assume the worst. Conversions
				// land here too — filter them out first.
				if _, isConv := info.Types[x.Fun]; isConv && info.Types[x.Fun].IsType() {
					return true
				}
				fail()
				return false
			}
			if !pass.InModule(callee.Pkg()) {
				return true // stdlib assumed write-free (see package doc)
			}
			if ok, known := assumed[callee]; known {
				if !ok {
					fail()
				}
				return true
			}
			if !pass.Facts.Bool(callee, writeFreeFact) {
				fail()
			}
		}
		return pure
	})
	return pure
}
