package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"coaxial/internal/lint/analysis"
)

// lockcheck is a flow-sensitive lock-set analysis over the serve layer's
// mutex discipline. Struct fields annotated //lint:guardedby name the mutex
// that must be held to touch them; the analyzer tracks the set of held
// locks through each function's CFG — including defer Unlock via the
// engine's RunDefers protocol — and reports:
//
//   - access to a guarded field without the guard held,
//   - locking a mutex that may already be held (Go mutexes are not
//     reentrant: a second Lock self-deadlocks),
//   - unlocking a mutex that is not held,
//   - an operation that can block indefinitely — a channel send or receive
//     outside a select with a default clause, a range over a channel, or a
//     call on the configured blocking list (engine invocations,
//     WaitGroup.Wait) — while any lock is held,
//   - a lock still held when the function returns (the dropped-Unlock bug).
//
// The lock-set lattice is a pair of sets per mutex object: must-held
// (intersection at joins — the guarantee guarded-field checks ride on) and
// may-held (union at joins — what double-lock and blocking checks ride
// on). Deferred unlocks live on a per-state stack joined by longest common
// prefix, so a defer registered on only one branch releases only on that
// branch's paths.
//
// Interprocedural reasoning uses summaries propagated through the fact
// store in dependency order: a function that touches guarded state (or
// calls something that does) without ever manipulating the guard itself is
// inferred to *require* the lock — call sites must hold it, and the
// function's own body is checked with the requirement assumed. Net
// acquisitions and releases transfer to callers the same way. Lock
// identity is the mutex's declared object (field or variable), which
// conflates instances of one struct type; every lock in this repository is
// effectively a singleton per owning object graph, and the limitation is
// documented in DESIGN §6.
type lockcheckState struct {
	cfg      LockConfig
	blocking map[string]bool
	// names maps guard objects to their annotated display form
	// ("store.mu"); locks seen only at Lock sites render as the bare field
	// name.
	names map[types.Object]string
}

// LockConfig configures the lockcheck analyzer for a repository.
type LockConfig struct {
	// Scope lists the exact import paths where findings are reported.
	// Unlike prefix-scoped analyzers, lockcheck matches exactly: the root
	// package "coaxial" must not sweep in every subpackage. Facts
	// (annotations, summaries) are computed everywhere regardless.
	Scope []string
	// Blocking lists qualified names (pkgpath.Type.Method or pkgpath.Func)
	// of calls that may block indefinitely — simulation engine entry
	// points, WaitGroup.Wait — and therefore must not run under a lock.
	Blocking []string
}

// DefaultLockConfig returns the lock discipline for this repository: the
// root package (Runner warm cache) and the serve layer, with the
// simulation entry points as the blocking frontier.
func DefaultLockConfig() LockConfig {
	return LockConfig{
		Scope: []string{"coaxial", "coaxial/internal/serve"},
		Blocking: []string{
			"coaxial/internal/serve.Engine.RunPoint",
			"coaxial.Runner.Run",
			"coaxial.Runner.RunMix",
			"coaxial.Runner.RunRack",
			"coaxial.Runner.RunSuite",
			"sync.WaitGroup.Wait",
			"sync.Once.Do",
		},
	}
}

// Fact keys.
const (
	guardFact   = "lockguard" // field *types.Var -> guard types.Object
	lockSumFact = "locksum"   // *types.Func -> lockSummary
)

// lockSummary is a function's interprocedural lock behavior: locks that
// must be held at entry, locks held at exit that were not required, and
// required locks no longer held at exit.
type lockSummary struct {
	requires []types.Object
	acquires []types.Object
	releases []types.Object
}

func sameObjs(a, b []types.Object) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s lockSummary) equal(o lockSummary) bool {
	return sameObjs(s.requires, o.requires) && sameObjs(s.acquires, o.acquires) &&
		sameObjs(s.releases, o.releases)
}

// NewLockCheck builds the lockcheck analyzer from a configuration.
func NewLockCheck(cfg LockConfig) *analysis.Analyzer {
	l := &lockcheckState{
		cfg:      cfg,
		blocking: map[string]bool{},
		names:    map[types.Object]string{},
	}
	for _, b := range cfg.Blocking {
		l.blocking[b] = true
	}
	return &analysis.Analyzer{
		Name:        "lockcheck",
		Doc:         "flow-sensitive lock-set analysis: unguarded access to //lint:guardedby fields, double-lock, unlock-without-lock, blocking calls under a lock, and locks leaked past return",
		Annotations: []string{"guardedby"},
		Run:         l.run,
	}
}

// exactScope reports whether path is exactly one of the scope entries.
func exactScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s {
			return true
		}
	}
	return false
}

func (l *lockcheckState) run(pass *analysis.Pass) error {
	l.annotate(pass)
	if err := analysis.Summarize(pass, lockSumFact, pass.Funcs(), l.summarize, lockSummary.equal); err != nil {
		return err
	}
	if exactScope(pass.Pkg.Path(), l.cfg.Scope) {
		l.reportPackage(pass)
	}
	return nil
}

// annotate resolves //lint:guardedby field annotations to guard objects and
// records them as facts. A malformed reference, an unknown guard, or a
// guard that is not a mutex is itself a finding: an inert annotation is a
// false sense of safety.
func (l *lockcheckState) annotate(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				args, ok := pass.DirectiveOn(field.Pos(), "guardedby")
				if !ok {
					continue
				}
				guard, display, err := l.resolveGuard(pass, st, args)
				if err != nil {
					pass.Reportf(field.Pos(), "bad //lint:guardedby annotation: %v", err)
					continue
				}
				l.names[guard] = display
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						pass.Facts.Set(obj, guardFact, guard)
					}
				}
			}
			return true
		})
	}
}

// resolveGuard resolves a guardedby reference: a bare name is a sibling
// field of the annotated struct; "Type.mu" names a struct type in the same
// package. The guard must be a sync.Mutex or sync.RWMutex.
func (l *lockcheckState) resolveGuard(pass *analysis.Pass, owner *ast.StructType, args string) (types.Object, string, error) {
	recv, name, err := analysis.ParseGuardedBy(args)
	if err != nil {
		return nil, "", err
	}
	findField := func(st *ast.StructType) types.Object {
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				if id.Name == name {
					return pass.TypesInfo.Defs[id]
				}
			}
		}
		return nil
	}
	var guard types.Object
	display := name
	if recv == "" {
		guard = findField(owner)
		if guard == nil {
			return nil, "", errNoGuard(name, "the annotated struct")
		}
	} else {
		display = recv + "." + name
		tn, _ := pass.Pkg.Scope().Lookup(recv).(*types.TypeName)
		if tn == nil {
			return nil, "", errNoGuard(recv, "this package")
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			return nil, "", errNoGuard(name, recv+" (not a struct)")
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == name {
				guard = st.Field(i)
			}
		}
		if guard == nil {
			return nil, "", errNoGuard(name, recv)
		}
	}
	if !isMutexType(guard.Type()) {
		return nil, "", errNotMutex(display)
	}
	return guard, display, nil
}

type guardErr string

func (e guardErr) Error() string { return string(e) }

func errNoGuard(name, where string) error {
	return guardErr("guard " + name + " not found in " + where)
}

func errNotMutex(name string) error {
	return guardErr("guard " + name + " is not a sync.Mutex or sync.RWMutex")
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// guardOf returns the guard recorded for a field, or nil.
func (l *lockcheckState) guardOf(pass *analysis.Pass, field types.Object) types.Object {
	v, ok := pass.Facts.Get(field, guardFact)
	if !ok {
		return nil
	}
	g, _ := v.(types.Object)
	return g
}

// lockName renders a lock object for diagnostics.
func (l *lockcheckState) lockName(obj types.Object) string {
	if n, ok := l.names[obj]; ok {
		return n
	}
	return obj.Name()
}

// ---- flow state ----

// heldLock is one element of the held set.
type heldLock struct {
	read bool      // held in RLock mode
	pos  token.Pos // acquisition site; NoPos for entry-assumed requirements
}

// lockOp is one mutex operation (direct or deferred).
type lockOp struct {
	kind string // "lock", "unlock", "rlock", "runlock"
	obj  types.Object
	pos  token.Pos
}

// lockDefer is one registered defer's lock effect, in execution order.
type lockDefer struct {
	ops []lockOp
}

func (d lockDefer) equal(o lockDefer) bool {
	if len(d.ops) != len(o.ops) {
		return false
	}
	for i := range d.ops {
		if d.ops[i] != o.ops[i] {
			return false
		}
	}
	return true
}

// lockEnv is the flow state: must-held (intersection join), may-held
// (union join), and the defer stack (longest-common-prefix join).
type lockEnv struct {
	must   map[types.Object]heldLock
	may    map[types.Object]heldLock
	defers []lockDefer
}

func newLockEnv() *lockEnv {
	return &lockEnv{must: map[types.Object]heldLock{}, may: map[types.Object]heldLock{}}
}

func (e *lockEnv) Clone() analysis.FlowState {
	c := &lockEnv{
		must:   make(map[types.Object]heldLock, len(e.must)),
		may:    make(map[types.Object]heldLock, len(e.may)),
		defers: append([]lockDefer(nil), e.defers...),
	}
	for k, v := range e.must {
		c.must[k] = v
	}
	for k, v := range e.may {
		c.may[k] = v
	}
	return c
}

func (e *lockEnv) Join(other analysis.FlowState) bool {
	o := other.(*lockEnv)
	changed := false
	// must: intersection; a mode disagreement weakens to read-held.
	for k, v := range e.must {
		ov, ok := o.must[k]
		if !ok {
			delete(e.must, k)
			changed = true
			continue
		}
		if ov.read && !v.read {
			v.read = true
			e.must[k] = v
			changed = true
		}
	}
	// may: union; a mode disagreement strengthens to write-held.
	for k, ov := range o.may {
		v, ok := e.may[k]
		if !ok {
			e.may[k] = ov
			changed = true
			continue
		}
		if v.read && !ov.read {
			v.read = false
			e.may[k] = v
			changed = true
		}
	}
	// defers: longest common prefix.
	n := len(e.defers)
	if len(o.defers) < n {
		n = len(o.defers)
	}
	i := 0
	for i < n && e.defers[i].equal(o.defers[i]) {
		i++
	}
	if i < len(e.defers) {
		e.defers = e.defers[:i]
		changed = true
	}
	return changed
}

// ---- per-function analysis ----

// lockPrescan is the syntactic pre-pass over one function body.
type lockPrescan struct {
	// nonBlocking marks comm statements of selects that have a default
	// clause: they poll, they do not block.
	nonBlocking map[ast.Node]bool
	// manipulated records mutex objects this function locks or unlocks
	// itself (directly or via defer); an unheld access to a field guarded
	// by a manipulated mutex is a bug in this function, not an entry
	// requirement.
	manipulated map[types.Object]bool
}

type lockChecker struct {
	l    *lockcheckState
	pass *analysis.Pass
	pre  *lockPrescan
	// fname names the function in diagnostics.
	fname string
	// requires seeds the entry lock set in summary pass 2 and reporting.
	requires []types.Object
	// collect, when non-nil, gathers inferred entry requirements instead
	// of reporting (summary pass 1).
	collect map[types.Object]token.Pos
	// reporting enables diagnostics (the replay pass).
	reporting bool
}

// prescan walks a function body (skipping nested function literals).
func (c *lockChecker) prescan(body *ast.BlockStmt) {
	c.pre = &lockPrescan{nonBlocking: map[ast.Node]bool{}, manipulated: map[types.Object]bool{}}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range x.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				for _, cl := range x.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
						c.pre.nonBlocking[cc.Comm] = true
					}
				}
			}
		case *ast.CallExpr:
			if op, ok := c.mutexOp(x); ok {
				c.pre.manipulated[op.obj] = true
			}
		case *ast.DeferStmt:
			for _, op := range c.deferOps(x) {
				c.pre.manipulated[op.obj] = true
			}
		}
		return true
	})
}

// mutexOp recognizes x.Lock()/Unlock()/RLock()/RUnlock() on a sync mutex
// and resolves the lock's identity (the mutex field or variable object).
func (c *lockChecker) mutexOp(call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var kind string
	switch sel.Sel.Name {
	case "Lock":
		kind = "lock"
	case "Unlock":
		kind = "unlock"
	case "RLock":
		kind = "rlock"
	case "RUnlock":
		kind = "runlock"
	default:
		return lockOp{}, false
	}
	if !isMutexType(c.pass.TypesInfo.TypeOf(sel.X)) {
		return lockOp{}, false
	}
	obj := c.lockObjOf(sel.X)
	if obj == nil {
		return lockOp{}, false
	}
	return lockOp{kind: kind, obj: obj, pos: call.Pos()}, true
}

// lockObjOf resolves the mutex expression to its declared object: a field
// object for st.mu (however deep the selector chain), a variable object
// for a local or package-level mutex.
func (c *lockChecker) lockObjOf(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return objOf(c.pass.TypesInfo, x)
	case *ast.SelectorExpr:
		if sel, ok := c.pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
	case *ast.StarExpr:
		return c.lockObjOf(x.X)
	}
	return nil
}

// deferOps extracts the lock operations a defer statement will perform at
// function exit: a direct mutex method call, or the mutex calls inside a
// deferred closure in source order.
func (c *lockChecker) deferOps(d *ast.DeferStmt) []lockOp {
	if op, ok := c.mutexOp(d.Call); ok {
		// The mutex operand is evaluated at defer time but the op runs at
		// exit; identity is by object either way.
		op.pos = d.Pos()
		return []lockOp{op}
	}
	lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit)
	if !ok {
		return nil
	}
	var ops []lockOp
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if op, ok := c.mutexOp(call); ok {
				op.pos = d.Pos()
				ops = append(ops, op)
			}
		}
		return true
	})
	return ops
}

// transfer is the abstract step for one CFG node.
func (c *lockChecker) transfer(n ast.Node, s analysis.FlowState) {
	env := s.(*lockEnv)
	switch x := n.(type) {
	case *analysis.RunDefers:
		for i := len(env.defers) - 1; i >= 0; i-- {
			for _, op := range env.defers[i].ops {
				c.applyOp(op, env)
			}
		}
		env.defers = nil
	case *ast.DeferStmt:
		env.defers = append(env.defers, lockDefer{ops: c.deferOps(x)})
	case *ast.RangeStmt:
		if t := c.pass.TypesInfo.TypeOf(x.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				c.blockingOp(x.Pos(), "range over channel", env)
			}
		}
		c.scanNode(x.X, env)
	default:
		c.scanNode(n, env)
	}
}

// scanNode walks one straight-line statement or lowered expression,
// firing lock, call, field-access, and channel events in source order.
func (c *lockChecker) scanNode(n ast.Node, env *lockEnv) {
	chanOK := c.pre.nonBlocking[n]
	writes := map[ast.Expr]bool{}
	markWrite := func(e ast.Expr) {
		e = ast.Unparen(e)
		writes[e] = true
		if ix, ok := e.(*ast.IndexExpr); ok {
			writes[ast.Unparen(ix.X)] = true
		}
	}
	switch x := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			markWrite(lhs)
		}
	case *ast.IncDecStmt:
		markWrite(x.X)
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch y := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			c.goStmt(y, env)
			return false
		case *ast.CallExpr:
			c.call(y, env)
		case *ast.SelectorExpr:
			c.fieldAccess(y, writes[y], env)
		case *ast.SendStmt:
			if !chanOK {
				c.blockingOp(y.Arrow, "channel send", env)
			}
		case *ast.UnaryExpr:
			if y.Op == token.ARROW && !chanOK {
				c.blockingOp(y.OpPos, "channel receive", env)
			}
		}
		return true
	})
}

// applyOp applies one mutex operation to the state, reporting double-lock
// and unlock-without-lock in the replay pass.
func (c *lockChecker) applyOp(op lockOp, env *lockEnv) {
	name := c.l.lockName(op.obj)
	switch op.kind {
	case "lock", "rlock":
		if held, ok := env.may[op.obj]; ok && c.reporting {
			// RLock while read-held is legal; everything else can
			// self-deadlock (Go mutexes are not reentrant).
			if !(op.kind == "rlock" && held.read) {
				c.pass.Reportf(op.pos, "%s of %s, which may already be held (self-deadlock)",
					verbFor(op.kind), name)
			}
		}
		h := heldLock{read: op.kind == "rlock", pos: op.pos}
		env.must[op.obj] = h
		env.may[op.obj] = h
	case "unlock", "runlock":
		if _, ok := env.may[op.obj]; !ok && c.reporting {
			c.pass.Reportf(op.pos, "%s of %s, which is not held", verbFor(op.kind), name)
		}
		delete(env.must, op.obj)
		delete(env.may, op.obj)
	}
}

func verbFor(kind string) string {
	switch kind {
	case "lock":
		return "Lock"
	case "rlock":
		return "RLock"
	case "unlock":
		return "Unlock"
	default:
		return "RUnlock"
	}
}

// call handles one call expression: mutex ops, blocking-list calls, and
// callee summaries (requirement checks, acquire/release effects).
func (c *lockChecker) call(call *ast.CallExpr, env *lockEnv) {
	if op, ok := c.mutexOp(call); ok {
		c.applyOp(op, env)
		return
	}
	fn := calleeOf(c.pass.TypesInfo, call)
	if fn == nil {
		return // dynamic call: no effect, benefit of the doubt
	}
	if c.l.blocking[funcQName(fn)] {
		c.blockingOp(call.Pos(), "call to "+fn.Name(), env)
		return
	}
	sum, ok := c.summaryOf(fn)
	if !ok {
		return
	}
	for _, req := range sum.requires {
		if _, held := env.must[req]; held {
			continue
		}
		c.needLock(req, call.Pos(), "call to "+fn.Name()+" requires")
	}
	for _, rel := range sum.releases {
		delete(env.must, rel)
		delete(env.may, rel)
	}
	for _, acq := range sum.acquires {
		h := heldLock{pos: call.Pos()}
		env.must[acq] = h
		env.may[acq] = h
	}
}

// goStmt checks that a spawned goroutine does not require caller-held
// locks (they do not transfer across the spawn), then scans the argument
// expressions, which evaluate synchronously.
func (c *lockChecker) goStmt(g *ast.GoStmt, env *lockEnv) {
	if fn := calleeOf(c.pass.TypesInfo, g.Call); fn != nil && c.reporting {
		if sum, ok := c.summaryOf(fn); ok {
			for _, req := range sum.requires {
				c.pass.Reportf(g.Pos(), "goroutine %s requires %s held, but locks do not transfer to goroutines",
					fn.Name(), c.l.lockName(req))
			}
		}
	}
	for _, arg := range g.Call.Args {
		c.scanNode(arg, env)
	}
}

// fieldAccess checks a read or write of a guarded struct field.
func (c *lockChecker) fieldAccess(sel *ast.SelectorExpr, write bool, env *lockEnv) {
	selection, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field := selection.Obj()
	guard := c.l.guardOf(c.pass, field)
	if guard == nil {
		return
	}
	if held, ok := env.must[guard]; ok && (!held.read || !write) {
		return // held in an adequate mode
	}
	what := "access to"
	if write {
		what = "write of"
		// A write needs the guard in write mode; a read-held guard is the
		// only way to get here with must-held.
		if _, ok := env.must[guard]; ok {
			c.report(sel.Pos(), "write of %s with %s held only in read mode",
				field.Name(), c.l.lockName(guard))
			return
		}
	}
	c.needLock(guard, sel.Pos(), what+" "+field.Name()+" requires")
}

// needLock handles a point that needs a lock held: in the collect pass it
// becomes an inferred entry requirement (unless this function manipulates
// the lock itself, which makes the miss a local bug); in the replay pass
// it reports.
func (c *lockChecker) needLock(guard types.Object, pos token.Pos, what string) {
	if c.collect != nil {
		if !c.pre.manipulated[guard] {
			if _, ok := c.collect[guard]; !ok {
				c.collect[guard] = pos
			}
		}
		return
	}
	if c.reporting {
		c.pass.Reportf(pos, "%s %s, which is not held", what, c.l.lockName(guard))
	}
}

func (c *lockChecker) report(pos token.Pos, format string, args ...any) {
	if c.reporting {
		c.pass.Reportf(pos, format, args...)
	}
}

// blockingOp reports an operation that can block indefinitely while any
// lock is held.
func (c *lockChecker) blockingOp(pos token.Pos, what string, env *lockEnv) {
	if !c.reporting || len(env.may) == 0 {
		return
	}
	// Deterministic pick: the earliest-declared held lock.
	var held types.Object
	for obj := range env.may {
		if held == nil || obj.Pos() < held.Pos() {
			held = obj
		}
	}
	c.pass.Reportf(pos, "%s while holding %s: the lock is held across a potentially-blocking operation",
		what, c.l.lockName(held))
}

// summaryOf fetches a callee's lock summary; absent summaries (stdlib,
// facts-partial runs) give the callee the benefit of the doubt.
func (c *lockChecker) summaryOf(fn *types.Func) (lockSummary, bool) {
	v, ok := c.pass.Facts.Get(fn, lockSumFact)
	if !ok {
		return lockSummary{}, false
	}
	sum, _ := v.(lockSummary)
	return sum, true
}

// sortedObjs renders a set deterministically (declaration order).
func sortedObjs(set map[types.Object]token.Pos) []types.Object {
	out := make([]types.Object, 0, len(set))
	for obj := range set {
		out = append(out, obj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// ---- package passes ----

// summarize computes one function's lock summary: pass 1 infers entry
// requirements (unheld guarded accesses of locks the function never
// manipulates), pass 2 re-runs with the requirements assumed and diffs the
// exit state against them.
func (l *lockcheckState) summarize(pass *analysis.Pass, fn analysis.Func) lockSummary {
	cfg := pass.CFG(fn.Decl.Body)
	c := &lockChecker{l: l, pass: pass, fname: fn.Decl.Name.Name}
	c.prescan(fn.Decl.Body)

	// Pass 1: collect entry requirements.
	c.collect = map[types.Object]token.Pos{}
	in := analysis.Forward(cfg, newLockEnv(), c.transfer)
	analysis.ReplayBlocks(cfg, in, c.transfer)
	requires := sortedObjs(c.collect)

	// Pass 2: assume the requirements, diff the exit state.
	c.collect = nil
	c.requires = requires
	entry := newLockEnv()
	for _, req := range requires {
		entry.must[req] = heldLock{}
		entry.may[req] = heldLock{}
	}
	in = analysis.Forward(cfg, entry, c.transfer)

	sum := lockSummary{requires: requires}
	exit := in[cfg.Exit.Index]
	if exit == nil {
		return sum // no path reaches the exit
	}
	ex := exit.(*lockEnv)
	reqSet := map[types.Object]bool{}
	for _, r := range requires {
		reqSet[r] = true
	}
	acq := map[types.Object]token.Pos{}
	for obj := range ex.must {
		if !reqSet[obj] {
			acq[obj] = obj.Pos()
		}
	}
	sum.acquires = sortedObjs(acq)
	rel := map[types.Object]token.Pos{}
	for _, r := range requires {
		if _, held := ex.must[r]; !held {
			rel[r] = r.Pos()
		}
	}
	sum.releases = sortedObjs(rel)
	return sum
}

// reportPackage runs the reporting pass over every function body and
// function literal of an in-scope package.
func (l *lockcheckState) reportPackage(pass *analysis.Pass) {
	for _, fn := range pass.Funcs() {
		v, _ := pass.Facts.Get(fn.Obj, lockSumFact)
		sum, _ := v.(lockSummary)
		l.reportFunc(pass, fn.Decl.Body, fn.Decl.Name.Name, sum.requires)
	}
	for _, f := range pass.Files {
		// Function literals are analyzed as independent functions: their
		// own entry requirements are inferred first, so a closure invoked
		// under a caller-held lock stays quiet. Directly-deferred literals
		// (defer func() { ... }()) are excluded: their lock operations are
		// modeled at the enclosing function's RunDefers point, where the
		// locks they release really are held.
		deferred := map[*ast.FuncLit]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
					deferred[lit] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && !deferred[lit] {
				cfg := pass.CFG(lit.Body)
				c := &lockChecker{l: l, pass: pass, fname: "func literal"}
				c.prescan(lit.Body)
				c.collect = map[types.Object]token.Pos{}
				in := analysis.Forward(cfg, newLockEnv(), c.transfer)
				analysis.ReplayBlocks(cfg, in, c.transfer)
				l.reportFunc(pass, lit.Body, "func literal", sortedObjs(c.collect))
			}
			return true
		})
	}
}

// reportFunc replays one function with diagnostics enabled and checks its
// exit state for leaked locks.
func (l *lockcheckState) reportFunc(pass *analysis.Pass, body *ast.BlockStmt, name string, requires []types.Object) {
	cfg := pass.CFG(body)
	c := &lockChecker{l: l, pass: pass, fname: name, requires: requires}
	c.prescan(body)
	entry := newLockEnv()
	for _, req := range requires {
		entry.must[req] = heldLock{}
		entry.may[req] = heldLock{}
	}
	in := analysis.Forward(cfg, entry, c.transfer)
	c.reporting = true
	analysis.ReplayBlocks(cfg, in, c.transfer)

	exit := in[cfg.Exit.Index]
	if exit == nil {
		return
	}
	ex := exit.(*lockEnv)
	reqSet := map[types.Object]bool{}
	for _, r := range requires {
		reqSet[r] = true
	}
	leaks := map[types.Object]token.Pos{}
	for obj, h := range ex.may {
		if !reqSet[obj] && h.pos.IsValid() {
			leaks[obj] = h.pos
		}
	}
	for _, obj := range sortedObjs(leaks) {
		if _, must := ex.must[obj]; must {
			pass.Reportf(leaks[obj], "%s acquired here is still held when %s returns",
				l.lockName(obj), name)
		} else {
			pass.Reportf(leaks[obj], "%s acquired here may still be held on some return paths of %s",
				l.lockName(obj), name)
		}
	}
}
