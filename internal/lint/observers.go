package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"coaxial/internal/lint/analysis"
)

// ObserverConfig parameterizes the observer-purity analyzer.
type ObserverConfig struct {
	// Interfaces lists observation interfaces as "pkgpath.TypeName" (e.g.
	// "coaxial/internal/dram.CommandObserver"). Every method of every type
	// implementing one of them is checked.
	Interfaces []string
	// HookTypes lists concrete observation types checked the same way even
	// though no interface names them (e.g.
	// "coaxial/internal/validate.Lifecycle", whose OnIssue/OnComplete are
	// called from the simulator's sequential drain).
	HookTypes []string
	// StatePackages are the import paths holding simulator state. An
	// observer may read them freely but must not write through a pointer
	// into them nor call one of their mutating methods.
	StatePackages []string
}

// NewObservers returns the analyzer enforcing the harness's
// observation-only guarantee structurally: validation taps must never
// mutate the simulation they watch, or a validated run stops being
// bit-identical to an unvalidated one (the property
// TestValidationObservationOnly pins at runtime).
//
// Inside a checked type's methods the analyzer allows mutation of the
// receiver's own state (that is what an oracle accumulates into) and of
// locals, and calls to write-free functions (purity facts) or the stdlib.
// It flags writes to package-level variables, writes through any pointer
// to a state-package type other than the receiver itself (including
// pointer parameters like *memreq.Request), and calls to mutating
// pointer-receiver methods on state-package types.
func NewObservers(cfg ObserverConfig) *analysis.Analyzer {
	stateSet := map[string]bool{}
	for _, p := range cfg.StatePackages {
		stateSet[p] = true
	}
	hookSet := map[string]bool{}
	for _, t := range cfg.HookTypes {
		hookSet[t] = true
	}
	a := &analysis.Analyzer{
		Name: "observers",
		Doc:  "command observers and validation hooks must not mutate simulator state",
	}
	a.Run = func(pass *analysis.Pass) error {
		ifaces := resolveInterfaces(pass, cfg.Interfaces)
		for _, fn := range pass.Funcs() {
			recv := fn.Obj.Type().(*types.Signature).Recv()
			if recv == nil {
				continue
			}
			recvNamed := namedOf(recv.Type())
			if recvNamed == nil || !observedType(recvNamed, ifaces, hookSet) {
				continue
			}
			checkObserverMethod(pass, fn.Decl, recvNamed, stateSet)
		}
		return nil
	}
	return a
}

// resolveInterfaces finds the configured interfaces among this package and
// its imports (a type can only implement an interface it can reference).
func resolveInterfaces(pass *analysis.Pass, names []string) []*types.Interface {
	pkgs := append([]*types.Package{pass.Pkg}, pass.Pkg.Imports()...)
	var out []*types.Interface
	for _, qname := range names {
		dot := strings.LastIndex(qname, ".")
		if dot < 0 {
			continue
		}
		pkgPath, typeName := qname[:dot], qname[dot+1:]
		for _, pkg := range pkgs {
			if pkg.Path() != pkgPath {
				continue
			}
			if obj := pkg.Scope().Lookup(typeName); obj != nil {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					out = append(out, iface)
				}
			}
		}
	}
	return out
}

// observedType reports whether T (or *T) implements one of the interfaces
// or is listed as a hook type.
func observedType(named *types.Named, ifaces []*types.Interface, hookSet map[string]bool) bool {
	if hookSet[typeQName(named)] {
		return true
	}
	ptr := types.NewPointer(named)
	for _, iface := range ifaces {
		if types.Implements(named, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// checkObserverMethod applies the purity rules to one method body.
func checkObserverMethod(pass *analysis.Pass, fd *ast.FuncDecl, recvNamed *types.Named, stateSet map[string]bool) {
	info := pass.TypesInfo

	// foreignStateDeref returns the offending subexpression if the path of
	// e reaches its target through a pointer to a state-package type other
	// than the receiver's own type.
	foreignStateDeref := func(e ast.Expr) ast.Expr {
		for {
			var base ast.Expr
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				base = x.X
			case *ast.IndexExpr:
				base = x.X
			case *ast.StarExpr:
				base = x.X
			default:
				return nil
			}
			if t := info.TypeOf(base); t != nil {
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					if named := namedOf(ptr.Elem()); named != nil && named != recvNamed &&
						named.Obj().Pkg() != nil && stateSet[named.Obj().Pkg().Path()] {
						return base
					}
				}
			}
			e = base
		}
	}

	checkWrite := func(lhs ast.Expr) {
		lhs = ast.Unparen(lhs)
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				return
			}
			if obj := objOf(info, id); obj != nil && !declaredWithin(obj, fd) {
				pass.Reportf(lhs.Pos(),
					"observer mutates package-level state %q: observation hooks must be effect-free on the simulation", id.Name)
			}
			return // rebinding a local or parameter copy
		}
		if bad := foreignStateDeref(lhs); bad != nil {
			pass.Reportf(lhs.Pos(),
				"observer writes simulator state through %s: observation hooks must not mutate the simulation they watch",
				types.ExprString(bad))
			return
		}
		if id := rootIdent(lhs); id != nil {
			if obj := objOf(info, id); obj != nil && !declaredWithin(obj, fd) {
				pass.Reportf(lhs.Pos(),
					"observer mutates captured or package-level state %q", id.Name)
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range x.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(x.X)
		case *ast.SendStmt:
			checkWrite(x.Chan)
		case *ast.CallExpr:
			checkObserverCall(pass, fd, x, recvNamed, stateSet, foreignStateDeref)
		}
		return true
	})
}

// checkObserverCall vets one call inside an observer method.
func checkObserverCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr,
	recvNamed *types.Named, stateSet map[string]bool, foreignStateDeref func(ast.Expr) ast.Expr) {
	info := pass.TypesInfo
	switch builtinName(info, call) {
	case "":
		// Resolved below.
	case "delete", "clear", "copy":
		// Mutating builtins: their target falls under the write rules.
		// Receiver-rooted targets (the observer's own maps) are fine; a
		// foreign pointer deref or captured root is not.
		if len(call.Args) > 0 {
			if bad := foreignStateDeref(call.Args[0]); bad != nil {
				pass.Reportf(call.Pos(),
					"observer mutates simulator state through %s", types.ExprString(bad))
			} else if id := rootIdent(call.Args[0]); id != nil {
				if obj := objOf(info, id); obj != nil && !declaredWithin(obj, fd) {
					pass.Reportf(call.Pos(), "observer mutates captured state %q", id.Name)
				}
			}
		}
		return
	default:
		return
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	fn := calleeOf(info, call)
	if fn == nil {
		return // dynamic call (e.g. a walk callback): out of scope
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		recvTypeNamed := namedOf(recv.Type())
		if recvTypeNamed == recvNamed {
			return // the observer's own methods may mutate it
		}
		if _, isPtr := recv.Type().(*types.Pointer); !isPtr {
			return // value receiver: mutates a copy
		}
		if recvTypeNamed != nil && recvTypeNamed.Obj().Pkg() != nil &&
			stateSet[recvTypeNamed.Obj().Pkg().Path()] {
			if knownMutating(pass, fn) {
				pass.Reportf(call.Pos(),
					"observer calls %s.%s, which may mutate simulator state (not write-free)",
					recvTypeNamed.Obj().Name(), fn.Name())
			}
			return
		}
		return
	}
	// Plain function: only module functions handed a pointer into state
	// packages are suspect.
	if !pass.InModule(fn.Pkg()) || !knownMutating(pass, fn) {
		return
	}
	for _, arg := range call.Args {
		if t := info.TypeOf(arg); t != nil {
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				if named := namedOf(ptr.Elem()); named != nil && named != recvNamed &&
					named.Obj().Pkg() != nil && stateSet[named.Obj().Pkg().Path()] {
					pass.Reportf(call.Pos(),
						"observer passes simulator state to %s, which is not write-free", fn.Name())
					return
				}
			}
		}
	}
}
