package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"coaxial/internal/lint/analysis"
)

// handlecheck is a static arena-handle lifetime analysis. The request
// arena (memreq.Arena) recycles *memreq.Request objects through an
// explicit Alloc/Release protocol; the generation counters catch misuse at
// run time, but only on the paths a test happens to execute. handlecheck
// proves the protocol statically along every path:
//
//   - use-after-release: a field access, method call, or call argument on
//     a handle after the path released it,
//   - double-release: releasing a handle twice along one path,
//   - escape without transfer: storing a live handle into a struct field,
//     map, slice element, or package-level variable whose declaration does
//     not carry a //lint:owns annotation naming the release protocol.
//
// The flow state is an alias-aware cell model: every allocation site (and
// every handle-typed parameter) is a cell; variables bind to cells, so
// `q := r` makes q and r the same handle, and releasing through either
// name releases both. Cell states order live < released < unknown and
// join by maximum: a handle released on one incoming path is treated as
// released after the merge, and a handle whose ownership was transferred
// (stored into an annotated container, or passed to a function whose
// summary says it consumes the argument) goes to unknown — the analysis
// stops tracking it rather than guessing.
//
// Interprocedural reasoning mirrors lockcheck's: each function's summary —
// the exit state of every handle-typed parameter, plus whether every
// return yields a freshly allocated handle — propagates through the fact
// store in dependency order, so callers see through helpers like
// releaseRetired without any annotation. Calls with no summary (interface
// dispatch, function values, stdlib) leave handle state untouched: the
// benefit of the doubt, traded for zero false positives.
type handlecheckState struct {
	cfg        HandleConfig
	allocs     map[string]bool
	releases   map[string]bool
	inspectors map[string]bool
	handleType map[string]bool
}

// HandleConfig configures the handlecheck analyzer.
type HandleConfig struct {
	// Scope lists import-path prefixes where findings are reported.
	Scope []string
	// HandleTypes are qualified names (pkgpath.Type) of arena-managed
	// types; a handle is a pointer to one of these.
	HandleTypes []string
	// Allocs are qualified names of allocator functions whose result is a
	// fresh live handle.
	Allocs []string
	// Releases are qualified names of release functions; the first
	// handle-typed argument is the handle being released.
	Releases []string
	// Inspectors are qualified names of read-only functions that accept
	// released handles by design (liveness probes, generation captures).
	Inspectors []string
}

// DefaultHandleConfig returns the request-arena protocol of this
// repository.
func DefaultHandleConfig() HandleConfig {
	return HandleConfig{
		Scope: []string{
			"coaxial/internal/sim",
			"coaxial/internal/memreq",
			"coaxial/internal/dram",
			"coaxial/internal/cxl",
			"coaxial/internal/validate",
			"coaxial/internal/rack",
		},
		HandleTypes: []string{"coaxial/internal/memreq.Request"},
		Allocs:      []string{"coaxial/internal/memreq.Arena.Alloc"},
		Releases:    []string{"coaxial/internal/memreq.Arena.Release"},
		Inspectors: []string{
			"coaxial/internal/memreq.Arena.Owns",
			"coaxial/internal/memreq.Arena.IsLive",
			"coaxial/internal/memreq.Arena.HandleOf",
		},
	}
}

// Fact keys.
const (
	ownsFact      = "handleowns" // destination object -> justification string
	handleSumFact = "handlesum"  // *types.Func -> handleSummary
)

// handleSummary is a function's interprocedural handle behavior: the exit
// state of each handle-typed parameter (by parameter position), and
// whether every return statement yields a freshly allocated handle.
type handleSummary struct {
	params       map[int]int8
	returnsFresh bool
}

func (s handleSummary) equal(o handleSummary) bool {
	if s.returnsFresh != o.returnsFresh || len(s.params) != len(o.params) {
		return false
	}
	for k, v := range s.params {
		if o.params[k] != v {
			return false
		}
	}
	return true
}

// NewHandleCheck builds the handlecheck analyzer from a configuration.
func NewHandleCheck(cfg HandleConfig) *analysis.Analyzer {
	h := &handlecheckState{
		cfg:        cfg,
		allocs:     map[string]bool{},
		releases:   map[string]bool{},
		inspectors: map[string]bool{},
		handleType: map[string]bool{},
	}
	for _, q := range cfg.Allocs {
		h.allocs[q] = true
	}
	for _, q := range cfg.Releases {
		h.releases[q] = true
	}
	for _, q := range cfg.Inspectors {
		h.inspectors[q] = true
	}
	for _, q := range cfg.HandleTypes {
		h.handleType[q] = true
	}
	return &analysis.Analyzer{
		Name:        "handlecheck",
		Doc:         "arena-handle lifetime analysis: use-after-release, double-release, and live handles escaping to containers without a //lint:owns transfer annotation",
		Annotations: []string{"owns"},
		Run:         h.run,
	}
}

func (h *handlecheckState) run(pass *analysis.Pass) error {
	h.annotate(pass)
	if err := analysis.Summarize(pass, handleSumFact, pass.Funcs(), h.summarize, handleSummary.equal); err != nil {
		return err
	}
	if pathPrefixes(pass.Pkg.Path(), h.cfg.Scope) {
		h.reportPackage(pass)
	}
	return nil
}

// annotate records //lint:owns annotations — on struct fields and on
// package-level variables — as ownership-transfer facts. The mandatory
// justification names who releases handles stored there.
func (h *handlecheckState) annotate(pass *analysis.Pass) {
	record := func(pos token.Pos, obj types.Object) {
		args, ok := pass.DirectiveOn(pos, "owns")
		if !ok {
			return
		}
		why, err := analysis.ParseOwns(args)
		if err != nil {
			pass.Reportf(pos, "bad //lint:owns annotation: %v", err)
			return
		}
		if obj != nil {
			pass.Facts.Set(obj, ownsFact, why)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.StructType:
				for _, field := range x.Fields.List {
					for _, name := range field.Names {
						record(field.Pos(), pass.TypesInfo.Defs[name])
					}
				}
			case *ast.GenDecl:
				if x.Tok != token.VAR {
					return true
				}
				for _, spec := range x.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						record(vs.Pos(), pass.TypesInfo.Defs[name])
					}
				}
			}
			return true
		})
	}
}

// owned reports whether obj carries an ownership-transfer annotation.
func (h *handlecheckState) owned(pass *analysis.Pass, obj types.Object) bool {
	_, ok := pass.Facts.Get(obj, ownsFact)
	return ok
}

// isHandle reports whether t is a pointer to a configured handle type.
func (h *handlecheckState) isHandle(t types.Type) bool {
	if t == nil {
		return false
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named := namedOf(ptr.Elem())
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return h.handleType[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

// ---- flow state ----

// Handle cell states, ordered so Join is max.
const (
	hLive int8 = iota
	hReleased
	hUnknown
)

// handleEnv is the flow state: variable -> cell bindings and cell ->
// lifetime states. Cell identity is the allocation site (or parameter
// declaration), so a loop re-executing an Alloc reuses the cell and the
// assignment resets it to live.
type handleEnv struct {
	vars  map[types.Object]int
	cells map[int]int8
	// defers holds deferred release operations (defer arena.Release(r)),
	// applied LIFO at RunDefers; joined by longest common prefix.
	defers []int // cell ids
}

func newHandleEnv() *handleEnv {
	return &handleEnv{vars: map[types.Object]int{}, cells: map[int]int8{}}
}

func (e *handleEnv) Clone() analysis.FlowState {
	c := &handleEnv{
		vars:   make(map[types.Object]int, len(e.vars)),
		cells:  make(map[int]int8, len(e.cells)),
		defers: append([]int(nil), e.defers...),
	}
	for k, v := range e.vars {
		c.vars[k] = v
	}
	for k, v := range e.cells {
		c.cells[k] = v
	}
	return c
}

func (e *handleEnv) Join(other analysis.FlowState) bool {
	o := other.(*handleEnv)
	changed := false
	// vars: keep only bindings both paths agree on.
	for k, v := range e.vars {
		if ov, ok := o.vars[k]; !ok || ov != v {
			delete(e.vars, k)
			changed = true
		}
	}
	// cells: max state; a cell only one path knows keeps its state.
	for k, ov := range o.cells {
		v, ok := e.cells[k]
		if !ok {
			e.cells[k] = ov
			changed = true
			continue
		}
		if ov > v {
			e.cells[k] = ov
			changed = true
		}
	}
	// defers: longest common prefix.
	n := len(e.defers)
	if len(o.defers) < n {
		n = len(o.defers)
	}
	i := 0
	for i < n && e.defers[i] == o.defers[i] {
		i++
	}
	if i < len(e.defers) {
		e.defers = e.defers[:i]
		changed = true
	}
	return changed
}

// ---- per-function analysis ----

type handleChecker struct {
	h    *handlecheckState
	pass *analysis.Pass
	// cellAt interns cells by creation site.
	cellAt map[token.Pos]int
	// fresh marks cells created by an allocation in this function (not
	// parameters), for returnsFresh inference.
	fresh map[int]bool
	// reporting enables diagnostics (the replay pass).
	reporting bool
	// tally enables return-freshness counting (the summary replay).
	tally bool
	// returns tallies return statements with a handle-typed result and
	// how many of those returned a fresh live cell.
	returns, freshReturns int
}

func (c *handleChecker) cell(pos token.Pos) int {
	id, ok := c.cellAt[pos]
	if !ok {
		id = len(c.cellAt) + 1
		c.cellAt[pos] = id
	}
	return id
}

// cellOf returns the cell a tracked identifier is bound to, or 0.
func (c *handleChecker) cellOf(e ast.Expr, env *handleEnv) int {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return 0
	}
	obj := objOf(c.pass.TypesInfo, id)
	if obj == nil {
		return 0
	}
	return env.vars[obj]
}

func (c *handleChecker) report(pos token.Pos, format string, args ...any) {
	if c.reporting {
		c.pass.Reportf(pos, format, args...)
	}
}

// transfer is the abstract step for one CFG node.
func (c *handleChecker) transfer(n ast.Node, s analysis.FlowState) {
	env := s.(*handleEnv)
	switch x := n.(type) {
	case *analysis.RunDefers:
		for i := len(env.defers) - 1; i >= 0; i-- {
			c.applyRelease(env.defers[i], x.At, env)
		}
		env.defers = nil
	case *ast.DeferStmt:
		if fn := calleeOf(c.pass.TypesInfo, x.Call); fn != nil && c.h.releases[funcQName(fn)] {
			for _, arg := range x.Call.Args {
				if cl := c.cellOf(arg, env); cl != 0 {
					env.defers = append(env.defers, cl)
				}
			}
			return
		}
		c.scanUses(x.Call, env)
	case *ast.AssignStmt:
		c.assign(x, env)
	case *ast.ReturnStmt:
		c.returnStmt(x, env)
	case *ast.RangeStmt:
		c.scanUses(x.X, env)
		// Range bindings over handle containers produce untracked values;
		// drop any shadowed bindings.
		for _, lhs := range []ast.Expr{x.Key, x.Value} {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := objOf(c.pass.TypesInfo, id); obj != nil {
					delete(env.vars, obj)
				}
			}
		}
	default:
		c.scanUses(n, env)
	}
}

// applyRelease transitions one cell through a release.
func (c *handleChecker) applyRelease(cl int, pos token.Pos, env *handleEnv) {
	switch env.cells[cl] {
	case hReleased:
		c.report(pos, "handle may already be released: double release")
	case hUnknown:
		// Ownership was transferred; whoever owns it now releases it.
		// Releasing it here anyway is exactly the double-free the transfer
		// annotation exists to prevent — but without tracking we stay
		// quiet rather than guess.
	}
	env.cells[cl] = hReleased
}

// assign handles bindings, aliasing, and escape checks for one assignment.
func (c *handleChecker) assign(x *ast.AssignStmt, env *handleEnv) {
	if len(x.Lhs) == len(x.Rhs) {
		for i := range x.Lhs {
			c.assignPair(x.Lhs[i], x.Rhs[i], env)
		}
		return
	}
	// Multi-value form (x, y := f()): scan the rhs, drop any handle-typed
	// lhs bindings — the engine does not track tuple results.
	for _, rhs := range x.Rhs {
		c.scanUses(rhs, env)
	}
	for _, lhs := range x.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := objOf(c.pass.TypesInfo, id); obj != nil {
				delete(env.vars, obj)
			}
		} else {
			c.scanUses(lhs, env)
		}
	}
}

func (c *handleChecker) assignPair(lhs, rhs ast.Expr, env *handleEnv) {
	lhs, rhs = ast.Unparen(lhs), ast.Unparen(rhs)

	if id, ok := lhs.(*ast.Ident); ok && c.h.isHandle(c.pass.TypesInfo.TypeOf(id)) &&
		!c.packageScoped(id) {
		obj := objOf(c.pass.TypesInfo, id)
		if obj == nil {
			c.scanUses(rhs, env)
			return
		}
		// Fresh allocation?
		if call, ok := rhs.(*ast.CallExpr); ok {
			if c.allocCall(call) {
				cl := c.cell(call.Pos())
				c.fresh[cl] = true
				env.cells[cl] = hLive
				env.vars[obj] = cl
				for _, arg := range call.Args {
					c.scanUses(arg, env)
				}
				return
			}
		}
		// Alias?
		if cl := c.cellOf(rhs, env); cl != 0 {
			env.vars[obj] = cl
			return
		}
		// Anything else (nil, field read, untracked call): stop tracking.
		c.scanUses(rhs, env)
		delete(env.vars, obj)
		return
	}

	// Destination is a field, element, or package-level variable: a live
	// handle flowing in is an ownership escape.
	c.scanUses(rhs, env)
	c.scanUses(lhs, env)
	c.escapeCheck(lhs, rhs, env)
}

// packageScoped reports whether an identifier names a package-level
// variable — a store into one is an escape, not a local binding.
func (c *handleChecker) packageScoped(id *ast.Ident) bool {
	v, ok := objOf(c.pass.TypesInfo, id).(*types.Var)
	return ok && v.Parent() == c.pass.Pkg.Scope()
}

// allocCall reports whether call is a configured allocator or a summarized
// always-fresh wrapper.
func (c *handleChecker) allocCall(call *ast.CallExpr) bool {
	fn := calleeOf(c.pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	if c.h.allocs[funcQName(fn)] {
		return true
	}
	if v, ok := c.pass.Facts.Get(fn, handleSumFact); ok {
		sum, _ := v.(handleSummary)
		return sum.returnsFresh
	}
	return false
}

// escapeCheck reports a live tracked handle stored into a destination
// without an ownership annotation, and stops tracking transferred cells.
func (c *handleChecker) escapeCheck(lhs, rhs ast.Expr, env *handleEnv) {
	var handles []int
	collectTracked(c, rhs, env, &handles)
	// A handle used as a map key escapes through the index expression.
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		collectTracked(c, ix.Index, env, &handles)
	}
	if len(handles) == 0 {
		return
	}
	dest, name := c.destination(lhs)
	if dest == nil {
		return // local through a pointer, or unresolvable: give up quietly
	}
	owned := c.h.owned(c.pass, dest)
	for _, cl := range handles {
		if env.cells[cl] == hLive {
			if owned {
				env.cells[cl] = hUnknown
			} else {
				c.report(lhs.Pos(), "live handle stored into %s, which has no //lint:owns annotation: ownership of the handle is lost", name)
			}
		}
	}
}

// collectTracked gathers the cells of tracked identifiers flowing into a
// destination as handle values: bare identifiers, append arguments, and
// composite-literal elements — but not identifiers under a field read
// (s.last = r.Addr stores a scalar, not the handle) or under an arbitrary
// call (the call's own effect is modeled by its summary).
func collectTracked(c *handleChecker, e ast.Expr, env *handleEnv, out *[]int) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch y := n.(type) {
		case *ast.FuncLit, *ast.SelectorExpr, *ast.IndexExpr:
			return false
		case *ast.CallExpr:
			if builtinName(c.pass.TypesInfo, y) == "append" {
				for _, arg := range y.Args {
					collectTracked(c, arg, env, out)
				}
			}
			return false
		case *ast.Ident:
			if obj := objOf(c.pass.TypesInfo, y); obj != nil {
				if cl, ok := env.vars[obj]; ok {
					*out = append(*out, cl)
				}
			}
		}
		return true
	})
}

// destination resolves the stored-into object of an lhs expression: the
// struct field of a selector, the container field/variable of an index
// expression, or a package-level variable.
func (c *handleChecker) destination(lhs ast.Expr) (types.Object, string) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if sel, ok := c.pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj(), "field " + sel.Obj().Name()
		}
	case *ast.IndexExpr:
		return c.destination(x.X)
	case *ast.StarExpr:
		return c.destination(x.X)
	case *ast.Ident:
		obj := objOf(c.pass.TypesInfo, x)
		if v, ok := obj.(*types.Var); ok && v.Parent() == c.pass.Pkg.Scope() {
			return v, "package variable " + v.Name()
		}
	}
	return nil, ""
}

// returnStmt checks returned handles and tallies fresh returns.
func (c *handleChecker) returnStmt(x *ast.ReturnStmt, env *handleEnv) {
	for _, res := range x.Results {
		if cl := c.cellOf(res, env); cl != 0 {
			if env.cells[cl] == hReleased {
				c.report(res.Pos(), "returning a handle after it was released")
			}
			if c.tally {
				c.returns++
				if c.fresh[cl] && env.cells[cl] == hLive {
					c.freshReturns++
				}
			}
			continue
		}
		if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && c.allocCall(call) {
			if c.tally {
				c.returns++
				c.freshReturns++ // return a.Alloc(): directly fresh
			}
			continue
		}
		if c.tally && c.h.isHandle(c.pass.TypesInfo.TypeOf(res)) {
			c.returns++ // handle-typed but untracked: not provably fresh
		}
		c.scanUses(res, env)
	}
}

// scanUses walks an expression or statement firing use and escape events:
// field accesses and calls on released handles, calls with handle
// arguments, and composite literals capturing handles.
func (c *handleChecker) scanUses(n ast.Node, env *handleEnv) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch y := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			c.call(y, env)
			return false
		case *ast.SelectorExpr:
			if cl := c.cellOf(y.X, env); cl != 0 && env.cells[cl] == hReleased {
				c.report(y.Pos(), "use of handle after release")
			}
			return false
		case *ast.CompositeLit:
			c.compositeLit(y, env)
			return false
		}
		return true
	})
}

// call handles one call expression: release protocol, inspectors,
// summaries, and released-handle arguments.
func (c *handleChecker) call(call *ast.CallExpr, env *handleEnv) {
	// A method call on a tracked handle is a use.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if cl := c.cellOf(sel.X, env); cl != 0 && env.cells[cl] == hReleased {
			c.report(call.Pos(), "call on handle after release")
		}
	}
	fn := calleeOf(c.pass.TypesInfo, call)
	if fn != nil {
		qn := funcQName(fn)
		if c.h.releases[qn] {
			for _, arg := range call.Args {
				if cl := c.cellOf(arg, env); cl != 0 {
					c.applyRelease(cl, call.Pos(), env)
				} else {
					c.scanUses(arg, env)
				}
			}
			return
		}
		if c.h.inspectors[qn] {
			return // inspectors accept released handles by design
		}
	}
	var sum handleSummary
	if fn != nil {
		if v, ok := c.pass.Facts.Get(fn, handleSumFact); ok {
			sum, _ = v.(handleSummary)
		}
	}
	for i, arg := range call.Args {
		cl := c.cellOf(arg, env)
		if cl == 0 {
			c.scanUses(arg, env)
			continue
		}
		if env.cells[cl] == hReleased {
			what := "a function"
			if fn != nil {
				what = fn.Name()
			}
			c.report(arg.Pos(), "handle passed to %s after release", what)
			continue
		}
		if st, ok := sum.params[i]; ok && st > env.cells[cl] {
			env.cells[cl] = st
		}
	}
}

// compositeLit checks handles captured by a composite literal: the
// destination is the literal's field (or element type), which must carry
// an ownership annotation.
func (c *handleChecker) compositeLit(lit *ast.CompositeLit, env *handleEnv) {
	st := structOf(c.pass.TypesInfo.TypeOf(lit))
	for i, el := range lit.Elts {
		val := el
		var dest types.Object
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if st != nil {
				if key, ok := kv.Key.(*ast.Ident); ok {
					for j := 0; j < st.NumFields(); j++ {
						if st.Field(j).Name() == key.Name {
							dest = st.Field(j)
						}
					}
				}
			}
		} else if st != nil && i < st.NumFields() {
			dest = st.Field(i)
		}
		if inner, ok := val.(*ast.CompositeLit); ok {
			c.compositeLit(inner, env)
			continue
		}
		var handles []int
		collectTracked(c, val, env, &handles)
		if len(handles) == 0 {
			c.scanUses(val, env)
			continue
		}
		name := "a composite literal"
		owned := false
		if dest != nil {
			name = "field " + dest.Name()
			owned = c.h.owned(c.pass, dest)
		}
		for _, cl := range handles {
			switch env.cells[cl] {
			case hReleased:
				c.report(val.Pos(), "use of handle after release")
			case hLive:
				if owned {
					env.cells[cl] = hUnknown
				} else {
					c.report(val.Pos(), "live handle stored into %s, which has no //lint:owns annotation: ownership of the handle is lost", name)
				}
			}
		}
	}
}

// structOf unwraps a (possibly pointer or slice) type to its struct.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		return u
	case *types.Pointer:
		return structOf(u.Elem())
	case *types.Slice:
		return structOf(u.Elem())
	case *types.Array:
		return structOf(u.Elem())
	case *types.Map:
		return structOf(u.Elem())
	}
	return nil
}

// ---- package passes ----

// paramHandles returns the handle-typed parameters of a function with
// their positions.
func (h *handlecheckState) paramHandles(obj *types.Func) map[int]*types.Var {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := map[int]*types.Var{}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if h.isHandle(p.Type()) {
			out[i] = p
		}
	}
	return out
}

// entryEnv builds the entry state: each handle-typed parameter is a live
// cell.
func (h *handlecheckState) entryEnv(c *handleChecker, obj *types.Func) *handleEnv {
	entry := newHandleEnv()
	for _, p := range h.paramHandles(obj) {
		cl := c.cell(p.Pos())
		entry.cells[cl] = hLive
		entry.vars[p] = cl
	}
	return entry
}

// summarize computes one function's handle summary.
func (h *handlecheckState) summarize(pass *analysis.Pass, fn analysis.Func) handleSummary {
	cfg := pass.CFG(fn.Decl.Body)
	c := &handleChecker{h: h, pass: pass, cellAt: map[token.Pos]int{}, fresh: map[int]bool{}}
	entry := h.entryEnv(c, fn.Obj)
	in := analysis.Forward(cfg, entry, c.transfer)

	sum := handleSummary{params: map[int]int8{}}
	params := h.paramHandles(fn.Obj)
	exit := in[cfg.Exit.Index]
	if exit != nil {
		ex := exit.(*handleEnv)
		for i, p := range params {
			cl, ok := ex.vars[p]
			if !ok {
				sum.params[i] = hUnknown // rebound or lost: stop tracking
				continue
			}
			if st := ex.cells[cl]; st != hLive {
				sum.params[i] = st
			}
		}
	}
	// returnsFresh needs per-return evidence, collected in a replay with
	// tallies on but diagnostics off.
	c.tally = true
	analysis.ReplayBlocks(cfg, in, c.transfer)
	sum.returnsFresh = c.returns > 0 && c.freshReturns == c.returns
	return sum
}

// reportPackage replays every function with diagnostics enabled.
func (h *handlecheckState) reportPackage(pass *analysis.Pass) {
	for _, fn := range pass.Funcs() {
		cfg := pass.CFG(fn.Decl.Body)
		c := &handleChecker{h: h, pass: pass, cellAt: map[token.Pos]int{}, fresh: map[int]bool{}}
		in := analysis.Forward(cfg, h.entryEnv(c, fn.Obj), c.transfer)
		c.reporting = true
		analysis.ReplayBlocks(cfg, in, c.transfer)
	}
	for _, f := range pass.Files {
		// Function literals run with no tracked state of their own (their
		// captures are the enclosing function's business), so analyzing
		// them independently checks only protocol-local bugs.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				cfg := pass.CFG(lit.Body)
				c := &handleChecker{h: h, pass: pass, cellAt: map[token.Pos]int{}, fresh: map[int]bool{}}
				in := analysis.Forward(cfg, newHandleEnv(), c.transfer)
				c.reporting = true
				analysis.ReplayBlocks(cfg, in, c.transfer)
			}
			return true
		})
	}
}
