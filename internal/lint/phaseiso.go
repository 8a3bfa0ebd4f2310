package lint

import (
	"go/ast"
	"go/types"

	"coaxial/internal/lint/analysis"
)

// NewPhaseIsolation returns the analyzer guarding the parallel host phase
// of rack.Step: the function literals handed to the worker pool (and any
// goroutine bodies in scope packages) may only write state derived from
// their own worker index — the structural invariant TestRackParallelTickRace
// verifies probabilistically at runtime.
//
// spawners lists the pool entry points as "pkgpath.Recv.Name" (e.g.
// "coaxial/internal/rack.workerPool.Run"); the last func-literal argument of
// a spawner call is treated as a worker body whose first int parameter is
// the worker index. A spawner naming an analyzed package that declares no
// such method is itself a finding. Inside a worker body the analyzer
// allows:
//
//   - writes to locals declared inside the literal;
//   - writes whose target path is indexed by the worker index or by a
//     local derived from it (i := due[k]);
//   - method calls whose receiver path is index-derived (s.cores[i].Tick)
//     or rooted at a local;
//   - calls to write-free functions (purity facts) and to the stdlib;
//   - channel sends (synchronization is the point of a send).
//
// Everything else — a write to a captured field, a call to a mutating
// method on shared state — is exactly the cross-phase race the runtime
// equivalence matrix can only catch probabilistically, and is flagged.
func NewPhaseIsolation(scope, spawners []string) *analysis.Analyzer {
	spawnSet := map[string]bool{}
	for _, s := range spawners {
		spawnSet[s] = true
	}
	a := &analysis.Analyzer{
		Name: "phaseiso",
		Doc:  "restricts parallel tick-phase workers to state derived from their own worker index",
	}
	a.Run = func(pass *analysis.Pass) error {
		reportUnresolved(pass, "spawner", spawners)
		if !pathPrefixes(pass.Pkg.Path(), scope) {
			return nil
		}
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					if fn := calleeOf(pass.TypesInfo, x); fn != nil && spawnSet[funcQName(fn)] {
						if lit := lastFuncLit(x); lit != nil {
							checkWorkerBody(pass, lit, workerIndexParam(pass, lit))
						}
					}
				case *ast.GoStmt:
					if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
						checkWorkerBody(pass, lit, nil)
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// lastFuncLit returns the trailing function-literal argument of a call.
func lastFuncLit(call *ast.CallExpr) *ast.FuncLit {
	if len(call.Args) == 0 {
		return nil
	}
	lit, _ := call.Args[len(call.Args)-1].(*ast.FuncLit)
	return lit
}

// workerIndexParam returns the object of the literal's first parameter
// (the worker index by the workerPool.Run convention), or nil.
func workerIndexParam(pass *analysis.Pass, lit *ast.FuncLit) types.Object {
	params := lit.Type.Params
	if params == nil || len(params.List) == 0 || len(params.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[params.List[0].Names[0]]
}

// checkWorkerBody applies the isolation rules to one worker literal.
func checkWorkerBody(pass *analysis.Pass, lit *ast.FuncLit, indexParam types.Object) {
	info := pass.TypesInfo

	// derived tracks the worker index and locals computed from it; a single
	// pre-order pass matches source order closely enough for the
	// straight-line worker bodies this guards.
	derived := map[types.Object]bool{}
	if indexParam != nil {
		derived[indexParam] = true
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if asg, ok := n.(*ast.AssignStmt); ok && usesAnyRHS(info, asg.Rhs, derived) {
			for _, lhs := range asg.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := objOf(info, id); declaredWithin(obj, lit) {
						derived[obj] = true
					}
				}
			}
		}
		return true
	})

	// pathAllowed reports whether a write/receiver path is worker-private:
	// rooted at a literal-local, or indexed by a derived value.
	pathAllowed := func(e ast.Expr) bool {
		if indexedByLoopVar(info, e, derived) {
			return true
		}
		id := rootIdent(e)
		return id != nil && declaredWithin(objOf(info, id), lit)
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if id.Name == "_" || declaredWithin(objOf(info, id), lit) {
						continue
					}
				}
				if !pathAllowed(lhs) {
					pass.Reportf(lhs.Pos(),
						"parallel phase worker writes shared state not derived from its worker index")
				}
			}
		case *ast.IncDecStmt:
			if !pathAllowed(x.X) {
				pass.Reportf(x.Pos(),
					"parallel phase worker mutates shared state not derived from its worker index")
			}
		case *ast.CallExpr:
			checkWorkerCall(pass, x, pathAllowed)
		case *ast.FuncLit:
			return x == lit // nested literals get their own treatment only via spawner calls
		}
		return true
	})
}

// checkWorkerCall applies the isolation rules to one call inside a worker.
func checkWorkerCall(pass *analysis.Pass, call *ast.CallExpr,
	pathAllowed func(ast.Expr) bool) {
	info := pass.TypesInfo
	if builtinName(info, call) != "" {
		return // append/len/...: mutation shows up as the enclosing assignment
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	fn := calleeOf(info, call)
	if fn == nil {
		// Dynamic call: allow when the function value is reached through a
		// local (e.g. a task struct received from a channel); flag captured
		// function values — the analyzer cannot see what they mutate.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && !pathAllowed(sel.X) {
			pass.Reportf(call.Pos(), "parallel phase worker calls a function value reached through shared state")
		}
		return
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if pathAllowed(sel.X) {
				return // per-worker element or local receiver
			}
		}
		if _, isPtr := recv.Type().(*types.Pointer); !isPtr {
			return // value receiver: operates on a copy
		}
	}
	if !pass.InModule(fn.Pkg()) {
		return // stdlib (sync, atomic) is the synchronization vocabulary
	}
	if knownMutating(pass, fn) {
		pass.Reportf(call.Pos(),
			"parallel phase worker calls %s, which mutates state not derived from the worker index", fn.Name())
	}
}
