// Package lint implements coaxlint: the static analyzers that enforce the
// simulator's determinism, counter-hygiene, and observer-purity
// invariants (DESIGN.md §6). The analyzers are written against the
// miniature framework in internal/lint/analysis and are run by
// cmd/coaxial-lint, both standalone and as a `go vet -vettool`.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"coaxial/internal/lint/analysis"
)

// rootIdent peels selectors, indexes, parens, and derefs off an expression
// and returns the identifier at its base, or nil (e.g. for a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its object (use or definition).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// declaredWithin reports whether obj's declaration lies inside node — the
// cheap way to distinguish locals (including parameters and receivers) from
// captured and package-level variables.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos &&
		node.Pos() <= obj.Pos() && obj.Pos() < node.End()
}

// usesAny reports whether expr mentions any of the given objects.
func usesAny(info *types.Info, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[objOf(info, id)] {
			found = true
		}
		return !found
	})
	return found
}

// calleeOf resolves a call to its static callee, or nil for dynamic calls
// (function values, interface methods) and builtins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok && sel.Kind() == types.MethodVal {
				return fn
			}
			return nil // field of function type: dynamic
		}
		// Package-qualified function (no selection entry).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
		return id.Name
	}
	return ""
}

// funcQName renders a function or method as "pkgpath.Name" or
// "pkgpath.Recv.Name" (receiver pointer-ness erased), the form the
// analyzer configurations use.
func funcQName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := namedOf(recv.Type()); named != nil {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// reportUnresolved reports every entry of a qualified-name table
// (funcQName form: "pkgpath.Func" or "pkgpath.Type.Method") that names the
// package under analysis but resolves to no function or method it
// declares. Tables matched by name alone would otherwise drop a deleted or
// renamed entry silently. what names the table in the message; findings
// sit on the package clause of the package's first file.
func reportUnresolved(pass *analysis.Pass, what string, table []string) {
	if len(pass.Files) == 0 {
		return
	}
	for _, q := range table {
		rest, ok := strings.CutPrefix(q, pass.Pkg.Path()+".")
		if ok && !declaresFunc(pass.Pkg, rest) {
			pass.Reportf(pass.Files[0].Name.Pos(), "%s %s names no function declared in %s", what, q, pass.Pkg.Path())
		}
	}
}

// declaresFunc reports whether pkg declares the function "Name" or the
// method "Type.Name" (promoted methods do not count: they are declared on
// the embedded type).
func declaresFunc(pkg *types.Package, name string) bool {
	typ, method, isMethod := strings.Cut(name, ".")
	if !isMethod {
		_, ok := pkg.Scope().Lookup(name).(*types.Func)
		return ok
	}
	tn, _ := pkg.Scope().Lookup(typ).(*types.TypeName)
	if tn == nil {
		return false
	}
	named := namedOf(tn.Type())
	for i := 0; named != nil && i < named.NumMethods(); i++ {
		if named.Method(i).Name() == method {
			return true
		}
	}
	return false
}

// namedOf unwraps pointers and aliases down to the *types.Named beneath a
// type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// pathPrefixes reports whether path matches any scope entry: equal to it or
// nested beneath it.
func pathPrefixes(path string, scope []string) bool {
	if len(scope) == 0 {
		return true
	}
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// knownMutating reports whether fn must be assumed to mutate state: it has
// no write-free fact, and the run's mode could have computed one (in
// facts-partial mode — go vet's one-package-at-a-time protocol — functions
// outside the current package get the benefit of the doubt).
func knownMutating(pass *analysis.Pass, fn *types.Func) bool {
	if pass.Facts.Bool(fn, writeFreeFact) {
		return false
	}
	return !pass.FactsPartial || fn.Pkg() == pass.Pkg
}

// findEnclosingFuncBody returns the innermost function body in file that
// contains pos — used by checks that must look "around" a statement, like
// the sorted-keys idiom search.
func findEnclosingFuncBody(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pos < n.Pos() || pos >= n.End() {
			return false
		}
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil && pos >= fn.Body.Pos() {
				best = fn.Body
			}
		case *ast.FuncLit:
			if pos >= fn.Body.Pos() {
				best = fn.Body
			}
		}
		return true
	})
	return best
}
