package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"coaxial/internal/lint/analysis"
)

// alloccheck enforces the zero-alloc discipline of the simulator's hot
// paths (DESIGN §6, §7): TestLoadedWindowAllocBudget measures the warm
// tick's allocations on one configuration; alloccheck checks every path of
// every hot function statically.
//
// Hot roots come from two sources: the declaration table in
// DefaultAllocConfig (the phased tick — sim.System run/drain phases,
// dram.SubChannel scheduling, cpu.Core ROB/MSHR paths, the cxl link
// drains, rack host/device phases) and a //lint:allocfree annotation on
// any function declaration. Inside a hot function the analyzer reports:
//
//   - every heap allocation the compiler reports there (Pass.HeapSites:
//     "escapes to heap" and "moved to heap" under -gcflags=-m), in the
//     compiler's words. The compiler decides what escapes.
//   - what allocates where -m does not say so: make of a map or channel,
//     map literals, interface boxing of a concrete non-pointer value,
//     string<->[]byte (and []rune) conversions, and calls on the
//     always-allocates list (fmt.Sprintf and friends, errors.New, ...).
//   - append in a loop to a local slice created without a capacity hint
//     (make with no cap, or a literal): growth happens inside the runtime,
//     where -m cannot see it. The creation site is the slice's defining
//     statement, unless another assignment may reach the append; struct
//     fields are exempt, since retained buffers amortize to zero once warm.
//   - calls to any function whose interprocedural summary says it
//     allocates, with the original site threaded into the message.
//
// One allocation is one finding: a compiler site inside the span of a
// syntactic finding is the same allocation. A compiler site at the call
// of a function the compiler inlined belongs to that function when it has
// a summary here — the summary carries it to the call, and a justification
// in the callee covers it — except a variadic call's "... argument" slice,
// which the caller builds.
//
// Summaries are computed for every function of every loaded package, run
// to convergence within a package and carried across packages by the fact
// store in dependency order. An allocation justified in place with
// //lint:alloc <why> is excluded from its function's summary: the
// justification covers the callers too. Where it can, a finding carries a
// SuggestedFix (coaxial-lint -fix): a capacity hint on an un-hinted append
// target's creation, or hoisting a loop-invariant, read-only allocation
// above its loop.
//
// Under go vet's tool protocol there is no compiler output, so only the
// syntactic rules run. Calls through interfaces and function values have
// no summaries, and function literal bodies are not descended into: they
// run when the closure does, and the closure itself is a compiler site.
type alloccheckState struct {
	cfg      AllocConfig
	hot      map[string]bool
	allocFns map[string]bool
}

// AllocConfig configures the alloccheck analyzer for a repository.
type AllocConfig struct {
	// HotFuncs lists qualified names (pkgpath.Type.Method or pkgpath.Func)
	// of the hot roots: functions whose bodies are checked directly.
	// Everything they call is checked at the call site through summaries.
	// An entry naming an analyzed package that declares no such function
	// is itself a finding.
	HotFuncs []string
	// AllocFuncs lists qualified names of functions that always allocate
	// (string formatting, error construction); calls to them from hot
	// functions are reported without needing source for the callee.
	AllocFuncs []string
}

// DefaultAllocConfig returns the hot-path roots of this repository: the
// phased tick and its drains (DESIGN §2, §7). The roots are the drivers;
// interprocedural summaries extend the guarantee to every helper they
// call.
func DefaultAllocConfig() AllocConfig {
	return AllocConfig{
		HotFuncs: []string{
			// sim.System: the phased tick — per-cycle step, event-driven
			// step, the core-event drain, and the request completion path,
			// where every request dies.
			"coaxial/internal/sim.System.step",
			"coaxial/internal/sim.System.stepEvent",
			"coaxial/internal/sim.System.tickEventCycle",
			"coaxial/internal/sim.System.nextEventBound",
			"coaxial/internal/sim.System.drainCoreEvents",
			"coaxial/internal/sim.System.Access",
			"coaxial/internal/sim.System.Complete",
			"coaxial/internal/sim.System.send",
			"coaxial/internal/sim.System.flushSpill",
			// cpu.Core: ROB dispatch/retire and the MSHR miss paths.
			"coaxial/internal/cpu.Core.Tick",
			"coaxial/internal/cpu.Core.NextEvent",
			"coaxial/internal/cpu.Core.dispatchLoop",
			"coaxial/internal/cpu.Core.startMem",
			"coaxial/internal/cpu.Core.ResolveMiss",
			// dram.SubChannel: FR-FCFS scheduling and command issue.
			"coaxial/internal/dram.SubChannel.Tick",
			"coaxial/internal/dram.SubChannel.NextEvent",
			"coaxial/internal/dram.SubChannel.tryIssue",
			"coaxial/internal/dram.SubChannel.Enqueue",
			// cxl: link serialization, retry, and the completion path.
			"coaxial/internal/cxl.Channel.Tick",
			"coaxial/internal/cxl.Channel.NextEvent",
			"coaxial/internal/cxl.PooledDevice.TickDevice",
			"coaxial/internal/cxl.Port.Tick",
			"coaxial/internal/cxl.Port.Enqueue",
			"coaxial/internal/cxl.Port.Complete",
			// rack: the lockstep host/device phases.
			"coaxial/internal/rack.rack.Step",
		},
		AllocFuncs: []string{
			"fmt.Sprintf", "fmt.Sprint", "fmt.Sprintln",
			"fmt.Errorf", "fmt.Appendf",
			"fmt.Fprintf", "fmt.Fprint", "fmt.Fprintln",
			"errors.New", "errors.Join",
			"strconv.Itoa", "strconv.Quote",
			"strconv.FormatInt", "strconv.FormatUint", "strconv.FormatFloat",
			"strconv.AppendInt", "strconv.AppendUint", "strconv.AppendFloat",
			"strings.Join", "strings.Repeat", "strings.Builder.String",
			"sort.Slice", "sort.SliceStable",
		},
	}
}

// Fact key: *types.Func -> allocSummary.
const allocSumFact = "allocsum"

// allocSummary is a function's interprocedural allocation behavior. reason
// carries the first unsuppressed allocation with its position so the
// report at a distant call site still points at the real source.
type allocSummary struct {
	allocates bool
	reason    string
}

// NewAllocCheck builds the alloccheck analyzer from a configuration.
func NewAllocCheck(cfg AllocConfig) *analysis.Analyzer {
	a := &alloccheckState{
		cfg:      cfg,
		hot:      map[string]bool{},
		allocFns: map[string]bool{},
	}
	for _, f := range cfg.HotFuncs {
		a.hot[f] = true
	}
	for _, f := range cfg.AllocFuncs {
		a.allocFns[f] = true
	}
	return &analysis.Analyzer{
		Name:          "alloccheck",
		Doc:           "heap allocations reachable from hot tick/drain functions: the compiler's escape-analysis sites, plus boxing, un-hinted append growth, map/chan makes, string conversions and fmt/errors construction",
		Directives:    []string{"alloc"},
		Annotations:   []string{"allocfree"},
		UsesHeapSites: true,
		Run:           a.run,
	}
}

func (a *alloccheckState) run(pass *analysis.Pass) error {
	reportUnresolved(pass, "hot root", a.cfg.HotFuncs)
	// Every function with a body has a summary from the start, so a call
	// to one is known to be summarized (see inlinedSite) before the
	// fixpoint reaches it.
	fns := pass.Funcs()
	for _, fn := range fns {
		pass.Facts.Set(fn.Obj, allocSumFact, allocSummary{})
	}
	// Convergence is decided on allocates alone: the reason nests the
	// callee's reason, so around a recursive cycle it would grow every
	// round. A summary keeps the chain that first proved it allocates.
	err := analysis.Summarize(pass, allocSumFact, fns, a.summarize,
		func(x, y allocSummary) bool { return x.allocates == y.allocates })
	if err != nil {
		return err
	}
	for _, fn := range fns {
		if a.hotDecl(pass, fn) {
			a.newChecker(pass, fn.Decl).check()
		}
	}
	return nil
}

// ---- per-function analysis ----

// allocPrescan is the syntactic pre-pass over one function body.
type allocPrescan struct {
	// loopOf maps every node inside a for/range body to its innermost
	// enclosing loop statement.
	loopOf map[ast.Node]ast.Stmt
	// captured holds objects referenced from inside function literals.
	captured map[types.Object]bool
	// assignedIn holds objects assigned per loop (for the hoist-invariance
	// check) — keyed by loop, nil key = whole body.
	assignedIn map[ast.Stmt]map[types.Object]bool
	// names counts identifier definitions per name, to veto hoists that
	// would collide with a shadowed declaration.
	names map[string]int
	// creation holds the value a local is defined with; assigns holds the
	// positions of its other assignments, self-appends
	// (x = append(x, ...)) excepted.
	creation map[types.Object]ast.Expr
	assigns  map[types.Object][]token.Pos
	// literals holds the bodies of function literals, whose compiler
	// sites belong to the closure, not to this function.
	literals []*ast.BlockStmt
	// calls maps the opening parenthesis of each static call to its callee:
	// the compiler reports a site it inlined from the callee there.
	calls map[token.Pos]*types.Func
}

type allocChecker struct {
	a    *alloccheckState
	pass *analysis.Pass
	decl *ast.FuncDecl
	pre  *allocPrescan
	// collect, when non-nil, receives the first unsuppressed allocation
	// (summary computation); nil means report diagnostics (a hot root).
	collect *allocSummary
	// claimed holds the source spans of syntactic findings; reported
	// dedupes findings by position.
	claimed  [][2]token.Pos
	reported map[token.Pos]bool
}

func (a *alloccheckState) newChecker(pass *analysis.Pass, decl *ast.FuncDecl) *allocChecker {
	c := &allocChecker{a: a, pass: pass, decl: decl, reported: map[token.Pos]bool{}}
	c.prescan(decl.Body)
	return c
}

// prescan walks the body once, mapping nodes to loops and closures and
// recording how each local is written.
func (c *allocChecker) prescan(body *ast.BlockStmt) {
	info := c.pass.TypesInfo
	c.pre = &allocPrescan{
		loopOf:     map[ast.Node]ast.Stmt{},
		captured:   map[types.Object]bool{},
		assignedIn: map[ast.Stmt]map[types.Object]bool{},
		names:      map[string]int{},
		creation:   map[types.Object]ast.Expr{},
		assigns:    map[types.Object][]token.Pos{},
		calls:      map[token.Pos]*types.Func{},
	}
	var loops []ast.Stmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case nil:
			return false
		case *ast.FuncLit:
			c.pre.literals = append(c.pre.literals, x.Body)
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := objOf(info, id); obj != nil && !declaredWithin(obj, x) {
						c.pre.captured[obj] = true
					}
				}
				return true
			})
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			if len(loops) > 0 {
				c.pre.loopOf[x] = loops[len(loops)-1]
			}
			loops = append(loops, x.(ast.Stmt))
			if fs, ok := x.(*ast.ForStmt); ok {
				ast.Inspect(fs.Init, walk)
			}
			var body *ast.BlockStmt
			var post ast.Stmt
			if fs, ok := x.(*ast.ForStmt); ok {
				body, post = fs.Body, fs.Post
			} else {
				body = x.(*ast.RangeStmt).Body
			}
			if post != nil {
				ast.Inspect(post, walk)
			}
			ast.Inspect(body, walk)
			loops = loops[:len(loops)-1]
			return false
		case *ast.Ident:
			if info.Defs[x] != nil {
				c.pre.names[x.Name]++
			}
		case *ast.CallExpr:
			if fn := calleeOf(info, x); fn != nil {
				c.pre.calls[x.Lparen] = fn
			}
		case *ast.ValueSpec:
			if len(x.Values) == len(x.Names) {
				for i, name := range x.Names {
					c.pre.creation[info.Defs[name]] = x.Values[i]
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					// Writing s.f or s[i] mutates what s refers to.
					if root := rootIdent(lhs); root != nil {
						c.noteAssigned(loops, objOf(info, root))
					}
					continue
				}
				obj := objOf(info, id)
				// A definition (:=) is the variable coming into being,
				// not a re-assignment; recording it would veto hoisting
				// the defining statement itself.
				switch {
				case info.Defs[id] != nil:
					if len(x.Lhs) == len(x.Rhs) {
						c.pre.creation[obj] = x.Rhs[i]
					}
				case len(x.Lhs) != len(x.Rhs) || !selfAppend(info, obj, x.Rhs[i]):
					c.pre.assigns[obj] = append(c.pre.assigns[obj], x.Pos())
					fallthrough
				default:
					c.noteAssigned(loops, obj)
				}
			}
		case *ast.IncDecStmt:
			if root := rootIdent(x.X); root != nil {
				c.noteAssigned(loops, objOf(info, root))
			}
		}
		if len(loops) > 0 {
			c.pre.loopOf[n] = loops[len(loops)-1]
		}
		return true
	}
	ast.Inspect(body, walk)
}

// selfAppend reports whether rhs is append(x, ...) or append(x[..], ...)
// for the object x it is assigned to.
func selfAppend(info *types.Info, obj types.Object, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || builtinName(info, call) != "append" || len(call.Args) == 0 {
		return false
	}
	root := rootIdent(call.Args[0])
	return root != nil && objOf(info, root) == obj
}

func (c *allocChecker) noteAssigned(loops []ast.Stmt, obj types.Object) {
	if obj == nil {
		return
	}
	keys := append([]ast.Stmt{nil}, loops...)
	for _, k := range keys {
		m := c.pre.assignedIn[k]
		if m == nil {
			m = map[types.Object]bool{}
			c.pre.assignedIn[k] = m
		}
		m[obj] = true
	}
}

// emit routes one allocation at pos, once per position: to the summary
// in collect mode (honoring suppressions itself), otherwise to the
// diagnostic stream (ReportWithFix handles suppression).
func (c *allocChecker) emit(pos token.Pos, fix *analysis.SuggestedFix, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	if c.collect != nil {
		if !c.collect.allocates && !c.pass.Suppressed(pos) {
			c.collect.allocates = true
			c.collect.reason = fmt.Sprintf("%s: %s",
				c.pass.Fset.Position(pos), fmt.Sprintf(format, args...))
		}
		return
	}
	c.pass.ReportWithFix(pos, fix, format, args...)
}

// report emits a syntactic finding at n and claims n's source span.
func (c *allocChecker) report(n ast.Node, fix *analysis.SuggestedFix, format string, args ...any) {
	c.claimed = append(c.claimed, [2]token.Pos{n.Pos(), n.End()})
	c.emit(n.Pos(), fix, format, args...)
}

// check walks the function: the syntactic rules over its body (function
// literals excluded), then the compiler's heap sites inside it.
func (c *allocChecker) check() {
	ast.Inspect(c.decl.Body, c.visit)
	c.heapSites()
}

func (c *allocChecker) visit(n ast.Node) bool {
	info := c.pass.TypesInfo
	switch x := n.(type) {
	case *ast.FuncLit:
		return false
	case *ast.AssignStmt:
		if len(x.Lhs) != len(x.Rhs) {
			break
		}
		for i, lhs := range x.Lhs {
			id, isIdent := ast.Unparen(lhs).(*ast.Ident)
			if isIdent && id.Name == "_" {
				continue // a blank discard keeps nothing
			}
			c.boxCheck(x.Rhs[i], info.TypeOf(lhs))
			if call, ok := ast.Unparen(x.Rhs[i]).(*ast.CallExpr); ok && isIdent && selfAppend(info, objOf(info, id), call) {
				c.appendGrowth(call, objOf(info, id))
			}
		}
	case *ast.ValueSpec:
		for i, name := range x.Names {
			if i < len(x.Values) {
				c.boxCheck(x.Values[i], info.TypeOf(name))
			}
		}
	case *ast.CompositeLit:
		if isKind[*types.Map](info.TypeOf(x)) {
			c.report(x, c.hoistFix(x), "heap allocation in hot path: map literal always allocates")
		}
	case *ast.CallExpr:
		c.call(x)
	}
	return true
}

// heapSites emits the compiler's heap sites inside the function: in its
// signature or body, outside function literals, unclaimed by a syntactic
// finding, and not inlined from a summarized callee.
func (c *allocChecker) heapSites() {
	sites := c.pass.HeapSites
	i := sort.Search(len(sites), func(i int) bool { return sites[i].Pos >= c.decl.Pos() })
	for ; i < len(sites) && sites[i].Pos < c.decl.End(); i++ {
		site := sites[i]
		if c.inLiteral(site.Pos) || c.isClaimed(site.Pos) || c.inlinedSite(site) {
			continue
		}
		var fix *analysis.SuggestedFix
		if c.collect == nil {
			if create := c.allocExprAt(site.Pos); create != nil {
				fix = c.hoistFix(create)
			}
		}
		c.emit(site.Pos, fix, "heap allocation in hot path: %s", site.Message)
	}
}

func (c *allocChecker) inLiteral(pos token.Pos) bool {
	for _, body := range c.pre.literals {
		if body.Pos() <= pos && pos < body.End() {
			return true
		}
	}
	return false
}

func (c *allocChecker) isClaimed(pos token.Pos) bool {
	for _, span := range c.claimed {
		if span[0] <= pos && pos < span[1] {
			return true
		}
	}
	return false
}

// inlinedSite reports whether a compiler site sits at the call of a
// summarized function, where the compiler reports what it inlined from
// the callee; the variadic "... argument" slice is built by the caller.
func (c *allocChecker) inlinedSite(site analysis.HeapSite) bool {
	fn := c.pre.calls[site.Pos]
	if fn == nil || strings.HasPrefix(site.Message, "... argument ") {
		return false
	}
	_, summarized := c.pass.Facts.Get(fn, allocSumFact)
	return summarized
}

// allocExprAt finds the allocation expression the compiler reports at pos
// — the & of &T{...}, the brace of a composite literal, the parenthesis
// of make or new — for keying a hoist fix onto it.
func (c *allocChecker) allocExprAt(pos token.Pos) ast.Expr {
	var found ast.Expr
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND && x.Pos() == pos {
				found = x
			}
		case *ast.CompositeLit:
			if x.Lbrace == pos {
				found = x
			}
		case *ast.CallExpr:
			if bn := builtinName(c.pass.TypesInfo, x); (bn == "make" || bn == "new") && x.Lparen == pos {
				found = x
			}
		}
		return found == nil
	})
	return found
}

// appendGrowth checks x = append(x, ...) growth discipline: inside a
// loop, the appended-to slice must carry a capacity hint at its creation
// site — its defining statement, when no other assignment can reach the
// append: none lies between the definition and the end of the outermost
// loop around the append that does not also hold the definition.
// Parameters, fields, slices reassigned on the way and slices captured by
// a closure get the benefit of the doubt.
func (c *allocChecker) appendGrowth(call *ast.CallExpr, target types.Object) {
	loop := c.pre.loopOf[call]
	if loop == nil {
		return // one-shot appends amortize; only loops grow
	}
	create := c.pre.creation[target]
	if create == nil || c.pre.captured[target] {
		return
	}
	outer := loop
	for p := c.pre.loopOf[outer]; p != nil && (create.Pos() < p.Pos() || p.End() <= create.Pos()); p = c.pre.loopOf[p] {
		outer = p
	}
	for _, at := range c.pre.assigns[target] {
		if create.Pos() < at && at < outer.End() {
			return
		}
	}
	switch x := ast.Unparen(create).(type) {
	case *ast.CompositeLit:
	case *ast.CallExpr:
		if builtinName(c.pass.TypesInfo, x) != "make" || len(x.Args) == 3 {
			return
		}
	default:
		return
	}
	c.report(create, c.capacityHintFix(create, loop),
		"append in a loop grows %s, which was created without a capacity hint", c.renderExpr(call.Args[0]))
}

// ---- calls, conversions, boxing ----

// call handles one call or conversion expression.
func (c *allocChecker) call(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	// Type conversions: string<->[]byte/[]rune copy; conversions to
	// interface types box.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		c.conversion(call, tv.Type)
		return
	}
	switch builtinName(info, call) {
	case "append":
		if !call.Ellipsis.IsValid() {
			if st, ok := info.TypeOf(call.Args[0]).Underlying().(*types.Slice); ok {
				for _, arg := range call.Args[1:] {
					c.boxCheck(arg, st.Elem())
				}
			}
		}
		return
	case "make":
		if t := info.TypeOf(call); isKind[*types.Map](t) {
			c.report(call, c.hoistFix(call), "heap allocation in hot path: make of a map always allocates")
		} else if isKind[*types.Chan](t) {
			c.report(call, c.hoistFix(call), "heap allocation in hot path: make of a channel always allocates")
		}
		return
	case "":
	default:
		return // new, len, cap, copy, ...: the compiler sees what they allocate
	}

	fn := calleeOf(info, call)
	if fn == nil {
		return
	}
	qname := funcQName(fn)
	if c.a.allocFns[qname] {
		// The call's own argument boxing is part of what it allocates.
		c.report(call, nil, "call to %s allocates in hot path", qname)
		return
	}
	if v, ok := c.pass.Facts.Get(fn, allocSumFact); ok {
		if sum, _ := v.(allocSummary); sum.allocates {
			c.report(call, nil, "call to %s allocates in hot path (%s)", fn.Name(), sum.reason)
		}
	}
	c.boxCheckArgs(call, fn)
}

// conversion reports allocating type conversions.
func (c *allocChecker) conversion(call *ast.CallExpr, to types.Type) {
	from := c.pass.TypesInfo.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	if isStringType(to) && isByteOrRuneSlice(from) {
		c.report(call, nil, "string conversion allocates in hot path: string(%s) copies", c.renderExpr(call.Args[0]))
		return
	}
	if isByteOrRuneSlice(to) && isStringType(from) {
		c.report(call, nil, "string conversion allocates in hot path: %s copies", c.renderExpr(call))
		return
	}
	if types.IsInterface(to.Underlying()) {
		c.boxCheck(call.Args[0], to)
	}
}

// boxCheckArgs checks each argument against its parameter type for
// interface boxing.
func (c *allocChecker) boxCheckArgs(call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // a []T passed as T...: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		c.boxCheck(arg, pt)
	}
}

// boxCheck reports a concrete non-pointer value flowing into an
// interface-typed destination. Pointers, interfaces, channels, maps, and
// funcs fit in the interface word without allocating; constants fold to
// static cells; nil is nil.
func (c *allocChecker) boxCheck(arg ast.Expr, dest types.Type) {
	if dest == nil || !types.IsInterface(dest.Underlying()) {
		return
	}
	if _, isTypeParam := types.Unalias(dest).(*types.TypeParam); isTypeParam {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return
	}
	at := tv.Type
	if types.IsInterface(at.Underlying()) {
		return
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	}
	c.report(arg, nil, "interface boxing in hot path: %s value %s converted to %s",
		at.String(), c.renderExpr(arg), dest.String())
}

// ---- suggested fixes ----

// capacityHintFix proposes editing an un-hinted slice creation so appends
// in a range loop stop growing it: make(S, 0) and S{} become
// make(S, 0, len(<ranged>)). Only offered when the loop is a range over a
// pure expression (an identifier or selector chain).
func (c *allocChecker) capacityHintFix(create ast.Expr, loop ast.Stmt) *analysis.SuggestedFix {
	rng, ok := loop.(*ast.RangeStmt)
	if !ok || c.collect != nil {
		return nil
	}
	bound := c.renderExpr(rng.X)
	if bound == "" {
		return nil
	}
	switch x := ast.Unparen(create).(type) {
	case *ast.CallExpr:
		// make(S, 0) -> make(S, 0, len(bound)); only the zero-length form
		// is safely hintable (adding cap to a non-zero len changes nothing
		// semantically, but hinting len>0 makes is rarely what's wanted).
		if builtinName(c.pass.TypesInfo, x) != "make" || len(x.Args) != 2 || !isZeroLit(x.Args[1]) {
			return nil
		}
		return &analysis.SuggestedFix{
			Message: "add a capacity hint sized to the ranged collection",
			Edits: []analysis.TextEdit{
				analysis.Edit(c.pass.Fset, x.Args[1].End(), x.Args[1].End(), ", len("+bound+")"),
			},
		}
	case *ast.CompositeLit:
		if len(x.Elts) != 0 || !isKind[*types.Slice](c.pass.TypesInfo.TypeOf(x)) {
			return nil
		}
		return &analysis.SuggestedFix{
			Message: "replace the empty literal with a capacity-hinted make",
			Edits: []analysis.TextEdit{
				analysis.Edit(c.pass.Fset, x.Pos(), x.End(),
					"make("+c.pass.TypesInfo.TypeOf(x).String()+", 0, len("+bound+"))"),
			},
		}
	}
	return nil
}

// hoistFix proposes moving a loop-invariant, read-only allocation above
// its loop. Offered only when it provably cannot change behavior: every
// operand of the allocation is a literal or a variable neither declared
// nor assigned inside the loop, and the bound variable is only read after
// creation — indexed, ranged over, or measured with len/cap — so a reused
// slice or map is indistinguishable from a fresh one.
func (c *allocChecker) hoistFix(create ast.Expr) *analysis.SuggestedFix {
	if c.collect != nil {
		return nil
	}
	loop := c.pre.loopOf[create]
	if loop == nil {
		return nil
	}
	stmt := c.creationStmt(create)
	if stmt == nil || c.pre.loopOf[stmt] != loop {
		return nil
	}
	// The statement must be a single-variable := creation.
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || c.pre.names[id.Name] != 1 {
		return nil // shadowing risk: another declaration shares the name
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil || !c.readOnlyAfter(obj, loop) {
		return nil
	}
	if !c.invariantOperands(create, loop) {
		return nil
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, c.pass.Fset, stmt); err != nil {
		return nil
	}
	indent := c.lineIndent(loop.Pos())
	return &analysis.SuggestedFix{
		Message: "hoist the loop-invariant allocation above the loop",
		Edits: []analysis.TextEdit{
			analysis.Insert(c.pass.Fset, loop.Pos(), buf.String()+"\n"+indent),
			analysis.Edit(c.pass.Fset, stmt.Pos(), stmt.End(), ""),
		},
	}
}

// creationStmt finds the assignment whose right-hand side is create.
func (c *allocChecker) creationStmt(create ast.Expr) ast.Stmt {
	var found ast.Stmt
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, rhs := range as.Rhs {
				if ast.Unparen(rhs) == ast.Unparen(create) {
					found = as
					return false
				}
			}
		}
		return true
	})
	return found
}

// readOnlyAfter reports whether obj is only ever read inside the loop:
// never assigned or captured, and every use is the operand of an index
// expression, a range clause, or len/cap — no address-of, no call
// argument or receiver, no store of the reference anywhere.
func (c *allocChecker) readOnlyAfter(obj types.Object, loop ast.Stmt) bool {
	if c.pre.captured[obj] || c.pre.assignedIn[loop][obj] {
		return false
	}
	info := c.pass.TypesInfo
	reads := map[*ast.Ident]bool{}
	read := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			reads[id] = true
		}
	}
	ast.Inspect(loop, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IndexExpr:
			read(x.X)
		case *ast.RangeStmt:
			read(x.X)
		case *ast.CallExpr:
			if bn := builtinName(info, x); (bn == "len" || bn == "cap") && len(x.Args) == 1 {
				read(x.Args[0])
			}
		}
		return true
	})
	ok := true
	ast.Inspect(loop, func(n ast.Node) bool {
		if id, isIdent := n.(*ast.Ident); isIdent && info.Uses[id] == obj && !reads[id] {
			ok = false
		}
		return ok
	})
	return ok
}

// invariantOperands reports whether every identifier inside the creation
// expression is declared outside the loop and never assigned inside it.
func (c *allocChecker) invariantOperands(create ast.Expr, loop ast.Stmt) bool {
	ok := true
	ast.Inspect(create, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || !ok {
			return ok
		}
		obj := objOf(c.pass.TypesInfo, id)
		if obj == nil {
			return true // type names in the literal
		}
		switch obj.(type) {
		case *types.Var:
			if declaredWithin(obj, loop) || c.pre.assignedIn[loop][obj] {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// lineIndent extracts the leading whitespace of pos's line, so an
// inserted statement aligns with the loop it precedes.
func (c *allocChecker) lineIndent(pos token.Pos) string {
	p := c.pass.Fset.Position(pos)
	if p.Column <= 1 {
		return ""
	}
	// gofmt indents with tabs, and a column counts each tab as one.
	return strings.Repeat("\t", p.Column-1)
}

// renderExpr prints a simple expression (identifier / selector chain) for
// messages and fixes; anything with side effects renders as "".
func (c *allocChecker) renderExpr(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := c.renderExpr(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.BasicLit:
		return x.Value
	case *ast.CallExpr:
		if tv, ok := c.pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			inner := c.renderExpr(x.Args[0])
			if inner == "" {
				return ""
			}
			return tv.Type.String() + "(" + inner + ")"
		}
	}
	return ""
}

// ---- type helpers ----

// isZeroLit reports whether e is the literal 0.
func isZeroLit(e ast.Expr) bool {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && bl.Kind == token.INT && bl.Value == "0"
}

// isKind reports whether t's underlying type is a T (*types.Map, ...).
func isKind[T types.Type](t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(T)
	return ok
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// ---- package passes ----

// hotDecl reports whether fd is a hot root: named in the declaration
// table, or carrying a //lint:allocfree annotation.
func (a *alloccheckState) hotDecl(pass *analysis.Pass, fn analysis.Func) bool {
	if _, ok := pass.DirectiveOn(fn.Decl.Pos(), "allocfree"); ok {
		return true
	}
	return a.hot[funcQName(fn.Obj)]
}

// summarize computes one function's allocation summary.
func (a *alloccheckState) summarize(pass *analysis.Pass, fn analysis.Func) allocSummary {
	c := a.newChecker(pass, fn.Decl)
	c.collect = &allocSummary{}
	c.check()
	return *c.collect
}
