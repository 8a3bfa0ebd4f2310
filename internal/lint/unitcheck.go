package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"coaxial/internal/lint/analysis"
)

// unitcheck performs flow-sensitive dimensional analysis over the
// simulator's quantity dimensions: every latency in the evaluation is a sum
// across clock domains (core cycles at 2.4 GHz, DDR5 nCK, CXL port
// traversals quoted in ns, bandwidth in GB/s), and the code passes all of
// them around as bare int64/float64. The analyzer tracks which dimension
// each expression carries through a per-function CFG (join at merges,
// fixpoint over loops) and flags cross-dimension arithmetic — cycles + ns,
// comparing cycles against an ns-valued constant, multiplying two
// latencies — unless the value flows through a blessed conversion
// (internal/clock's Cycles/NS/BytesPerCycle/SerializationCycles, whose
// signatures are dimension-seeded).
//
// Dimensions come from four sources, in priority order:
//  1. //lint:unit <dim> annotations on fields, consts, vars, and funcs
//     (an annotation declares the dimension; it never suppresses).
//  2. the configured declaration table (qualified names, e.g.
//     "coaxial/internal/dram.Timing.*" -> cycles).
//  3. inferred function-result dimensions, computed per package to a
//     fixpoint and propagated across packages through the fact store in
//     dependency order (like the purity pass).
//  4. parameter/local naming conventions ("now" and *Cycles are cycles,
//     *NS is ns, *GBs is GB/s) — used to seed parameter dimensions and to
//     cross-check what a named local is assigned.
//
// Untyped and named constants without a seeded dimension are
// dimensionless: adding a literal to a cycle count is fine, and
// dimensionless values combine with anything (they are scale factors).
// Unknown ("") is the lattice top: joining two different dimensions yields
// unknown, and unknown never produces a report — the analyzer only flags
// arithmetic where both sides are confidently, differently dimensioned.

// Dim is one element of the dimension lattice. The empty string is
// "unknown" (top): no claim, never reported against.
type Dim string

const (
	DimCycles Dim = "cycles"
	DimNS     Dim = "ns"
	DimPS     Dim = "ps"
	DimBytes  Dim = "bytes"
	DimFlits  Dim = "flits"
	DimBPC    Dim = "bytes/cycle"
	DimGBs    Dim = "GB/s"
	// DimGHz is cycles per ns — the dimension of clock.FreqGHz; it is what
	// makes ns*GHz = cycles and cycles/GHz = ns algebraic rather than
	// special-cased.
	DimGHz Dim = "GHz"
	// DimNSPerCycle is ns per cycle (1/GHz), so cycles*(ns/cycle) = ns.
	DimNSPerCycle Dim = "ns/cycle"
	// DimScalar marks dimensionless values: literals, counts, ratios,
	// scale factors. Scalar combines freely with every dimension.
	DimScalar Dim = "dimensionless"
)

// validDims enumerates the dimensions accepted by //lint:unit and the
// declaration table.
var validDims = map[Dim]bool{
	DimCycles: true, DimNS: true, DimPS: true, DimBytes: true,
	DimFlits: true, DimBPC: true, DimGBs: true, DimGHz: true,
	DimNSPerCycle: true, DimScalar: true,
}

// parseDim validates a dimension name. "_" is the explicit "unconstrained"
// placeholder used in signature strings.
func parseDim(s string) (Dim, error) {
	if s == "_" {
		return "", nil
	}
	d := Dim(s)
	if !validDims[d] {
		return "", fmt.Errorf("unknown dimension %q (want cycles, ns, ps, bytes, flits, bytes/cycle, GB/s, GHz, ns/cycle, or dimensionless)", s)
	}
	return d, nil
}

// unitSig is a function's dimensional signature. A nil params slice leaves
// every parameter unconstrained; an empty-string entry leaves that one
// parameter unconstrained.
type unitSig struct {
	params  []Dim
	results []Dim
}

// result is the dimension of the first result, unknown when undeclared.
func (s unitSig) result() Dim {
	if len(s.results) == 0 {
		return ""
	}
	return s.results[0]
}

// UnitConfig configures the unitcheck analyzer for a repository.
type UnitConfig struct {
	// Scope lists import-path prefixes where findings are reported; facts
	// (annotations, inferred signatures) are computed for every analyzed
	// package regardless.
	Scope []string
	// Decls seeds dimensions by qualified name:
	//
	//	"pkg/path.Name"           const/var/func     "cycles" or "ns -> cycles"
	//	"pkg/path.Type.Name"      field/method       "cycles" or "-> cycles"
	//	"pkg/path.Type.*"         every numeric field of Type
	//
	// Entries containing "->" are function signatures: comma-separated
	// parameter dimensions (or "_" for unconstrained), then the result
	// dimension. "-> cycles" constrains only the result.
	Decls map[string]string
	// ParamNames maps exact parameter/local names to dimensions ("now" ->
	// cycles). Applied only to numeric identifiers.
	ParamNames map[string]Dim
	// Suffixes maps name suffixes to dimensions, checked in the given
	// order ("Cycles" -> cycles, "NS" -> ns). An empty dimension blocks
	// later, shorter suffixes from matching (e.g. "PerCycle" -> "" keeps
	// nsPerCycle from reading as cycles).
	Suffixes []SuffixRule
}

// SuffixRule is one name-suffix convention.
type SuffixRule struct {
	Suffix string
	Dim    Dim
}

// DefaultUnitConfig returns the dimension seeds for this repository: the
// blessed conversions in internal/clock, the nCK-denominated DDR timing
// table, the CXL link parameters, the NoC hop latency, and the stats
// accumulators.
func DefaultUnitConfig() UnitConfig {
	return UnitConfig{
		Scope: []string{
			"coaxial/internal/sim",
			"coaxial/internal/cpu",
			"coaxial/internal/cache",
			"coaxial/internal/dram",
			"coaxial/internal/cxl",
			"coaxial/internal/calm",
			"coaxial/internal/noc",
			"coaxial/internal/memreq",
			"coaxial/internal/clock",
			"coaxial/internal/stats",
			"coaxial/internal/power",
			"coaxial/internal/validate",
		},
		Decls: map[string]string{
			// The clock package defines the blessed conversions.
			"coaxial/internal/clock.FreqGHz":             "GHz",
			"coaxial/internal/clock.CyclePS":             "ps",
			"coaxial/internal/clock.Cycles":              "ns -> cycles",
			"coaxial/internal/clock.NS":                  "cycles -> ns",
			"coaxial/internal/clock.BytesPerCycle":       "GB/s -> bytes/cycle",
			"coaxial/internal/clock.SerializationCycles": "bytes, GB/s -> cycles",

			// DDR5 timing constraints are all in command-clock cycles.
			"coaxial/internal/dram.Timing.*":                  "cycles",
			"coaxial/internal/dram.Config.RowBytes":           "bytes",
			"coaxial/internal/dram.Config.PeakGBsPerSub":      "GB/s",
			"coaxial/internal/dram.Config.PeakGBs":            "-> GB/s",
			"coaxial/internal/dram.Channel.PeakGBs":           "-> GB/s",
			"coaxial/internal/dram.Counters.ReadBytes":        "bytes",
			"coaxial/internal/dram.Counters.WriteBytes":       "bytes",
			"coaxial/internal/dram.Counters.ActiveBankCycles": "cycles",

			// CXL link parameters: port latency in ns, goodput in GB/s.
			"coaxial/internal/cxl.LinkParams.PortNS":              "ns",
			"coaxial/internal/cxl.LinkParams.RXGoodputGBs":        "GB/s",
			"coaxial/internal/cxl.LinkParams.TXGoodputGBs":        "GB/s",
			"coaxial/internal/cxl.LinkParams.ReqHeaderBytes":      "bytes",
			"coaxial/internal/cxl.LinkParams.WithPortNS":          "ns -> _",
			"coaxial/internal/cxl.LinkParams.UnloadedReadAdderNS": "-> ns",
			"coaxial/internal/cxl.Stats.RetryCycles":              "cycles",
			"coaxial/internal/cxl.Port.PeakGBs":                   "-> GB/s",
			"coaxial/internal/cxl.PooledDevice.PeakGBs":           "-> GB/s",

			// NoC hop latency.
			"coaxial/internal/noc.Mesh.HopCycles": "cycles",
			"coaxial/internal/noc.Mesh.Latency":   "-> cycles",

			// Request/line geometry.
			"coaxial/internal/memreq.LineSize": "bytes",

			// Stats accumulators and bandwidth conversions.
			"coaxial/internal/stats.GBs":                  "bytes, cycles -> GB/s",
			"coaxial/internal/stats.Utilization":          "GB/s, GB/s -> dimensionless",
			"coaxial/internal/stats.Breakdown.Add":        "cycles, cycles, cycles, cycles ->",
			"coaxial/internal/stats.Breakdown.OnChip":     "cycles",
			"coaxial/internal/stats.Breakdown.Queue":      "cycles",
			"coaxial/internal/stats.Breakdown.Service":    "cycles",
			"coaxial/internal/stats.Breakdown.CXL":        "cycles",
			"coaxial/internal/stats.Bandwidth.ReadBytes":  "bytes",
			"coaxial/internal/stats.Bandwidth.WriteBytes": "bytes",
			"coaxial/internal/stats.Bandwidth.AddRead":    "bytes ->",
			"coaxial/internal/stats.Bandwidth.AddWrite":   "bytes ->",
			"coaxial/internal/stats.Bandwidth.Total":      "-> bytes",
		},
		ParamNames: map[string]Dim{
			"now":  DimCycles,
			"at":   DimCycles,
			"when": DimCycles,
			"ns":   DimNS,
			"gbps": DimGBs,
			"gbs":  DimGBs,
		},
		Suffixes: []SuffixRule{
			// Blockers first: *PerCycle rates are not cycle counts.
			{Suffix: "PerCycle", Dim: ""},
			{Suffix: "Cycles", Dim: DimCycles},
			{Suffix: "Cycle", Dim: DimCycles},
			{Suffix: "NS", Dim: DimNS},
			{Suffix: "PS", Dim: DimPS},
			{Suffix: "GBs", Dim: DimGBs},
			{Suffix: "GBps", Dim: DimGBs},
			{Suffix: "Bytes", Dim: DimBytes},
		},
	}
}

// Fact keys.
const (
	unitFact    = "unit"    // types.Object (const/var/field) -> Dim
	unitSigFact = "unitsig" // *types.Func -> unitSig
)

// unitcheckState is the analyzer's parsed configuration.
type unitcheckState struct {
	cfg   UnitConfig
	decls map[string]Dim
	sigs  map[string]unitSig
}

// NewUnitCheck builds the unitcheck analyzer from a configuration.
// Malformed Decls entries panic: the table is program text, not input.
func NewUnitCheck(cfg UnitConfig) *analysis.Analyzer {
	u := &unitcheckState{
		cfg:   cfg,
		decls: map[string]Dim{},
		sigs:  map[string]unitSig{},
	}
	for name, spec := range cfg.Decls {
		if strings.Contains(spec, "->") {
			sig, err := parseUnitSig(spec)
			if err != nil {
				panic(fmt.Sprintf("unitcheck: decl %q: %v", name, err))
			}
			u.sigs[name] = sig
			continue
		}
		d, err := parseDim(strings.TrimSpace(spec))
		if err != nil {
			panic(fmt.Sprintf("unitcheck: decl %q: %v", name, err))
		}
		u.decls[name] = d
	}
	return &analysis.Analyzer{
		Name:        "unitcheck",
		Doc:         "flow-sensitive dimensional analysis: flags cross-dimension arithmetic (cycles+ns, GB/s vs bytes/cycle, latency products) outside blessed conversions",
		Annotations: []string{"unit"},
		Run:         u.run,
	}
}

// parseUnitSig parses "ns, _ -> cycles" style signature strings.
func parseUnitSig(spec string) (unitSig, error) {
	left, right, _ := strings.Cut(spec, "->")
	var sig unitSig
	if l := strings.TrimSpace(left); l != "" {
		for _, p := range strings.Split(l, ",") {
			d, err := parseDim(strings.TrimSpace(p))
			if err != nil {
				return sig, err
			}
			sig.params = append(sig.params, d)
		}
	}
	if r := strings.TrimSpace(right); r != "" {
		d, err := parseDim(r)
		if err != nil {
			return sig, err
		}
		sig.results = append(sig.results, d)
	}
	return sig, nil
}

func (u *unitcheckState) run(pass *analysis.Pass) error {
	u.annotate(pass)
	if err := u.infer(pass); err != nil {
		return err
	}
	if pathPrefixes(pass.Pkg.Path(), u.cfg.Scope) {
		u.reportPackage(pass)
	}
	return nil
}

// annotate records //lint:unit declarations as facts: on struct fields, on
// package consts/vars, and on functions (where the dimension names the
// result). Annotations are declarations of intent, so a bad dimension name
// is itself a finding.
func (u *unitcheckState) annotate(pass *analysis.Pass) {
	handle := func(pos token.Pos) (Dim, bool) {
		args, ok := pass.DirectiveOn(pos, "unit")
		if !ok {
			return "", false
		}
		// The dimension is the first token; anything after it is prose
		// ("//lint:unit cycles latched at tick").
		tok, _, _ := strings.Cut(strings.TrimSpace(args), " ")
		d, err := parseDim(tok)
		if err != nil || d == "" {
			if err == nil {
				err = fmt.Errorf("missing dimension")
			}
			pass.Reportf(pos, "bad //lint:unit annotation: %v", err)
			return "", false
		}
		return d, true
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.StructType:
				for _, field := range x.Fields.List {
					d, ok := handle(field.Pos())
					if !ok {
						continue
					}
					for _, name := range field.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							pass.Facts.Set(obj, unitFact, d)
						}
					}
				}
			case *ast.ValueSpec:
				if d, ok := handle(x.Pos()); ok {
					for _, name := range x.Names {
						if obj := pass.TypesInfo.Defs[name]; obj != nil {
							pass.Facts.Set(obj, unitFact, d)
						}
					}
				}
			case *ast.FuncDecl:
				if d, ok := handle(x.Pos()); ok {
					if obj, _ := pass.TypesInfo.Defs[x.Name].(*types.Func); obj != nil {
						pass.Facts.Set(obj, unitSigFact, unitSig{results: []Dim{d}})
					}
				}
			}
			return true
		})
	}
}

// infer computes result dimensions for this package's functions to a
// fixpoint: a function whose every return statement yields the same known
// dimension gets that dimension as a signature fact, visible to later
// functions in this package (hence the iteration) and, because the driver
// runs packages in dependency order, to every importing package.
func (u *unitcheckState) infer(pass *analysis.Pass) error {
	var cands []analysis.Func
	for _, fn := range pass.Funcs() {
		// Only functions whose first result is numeric and whose signature
		// is not already pinned by the table or an annotation.
		sig := fn.Obj.Type().(*types.Signature)
		if sig.Results().Len() == 0 || !isNumericType(sig.Results().At(0).Type()) {
			continue
		}
		if _, pinned := u.sigs[funcQName(fn.Obj)]; pinned {
			continue
		}
		if _, pinned := pass.Facts.Get(fn.Obj, unitSigFact); pinned {
			continue
		}
		cands = append(cands, fn)
	}
	return analysis.Summarize(pass, unitSigFact, cands, func(pass *analysis.Pass, fn analysis.Func) unitSig {
		returns := u.analyzeFunc(pass, fn, false)
		return unitSig{results: []Dim{joinReturns(returns)}}
	}, func(a, b unitSig) bool { return a.result() == b.result() })
}

// joinReturns reduces the dimensions a function returns to one: all equal
// and known (scalar sentinels like `return 0` don't count against a
// dimension) -> that dimension; conflicting or none -> unknown.
func joinReturns(returns []Dim) Dim {
	var d Dim
	for _, r := range returns {
		if r == "" || r == DimScalar {
			continue
		}
		if d == "" {
			d = r
		} else if d != r {
			return ""
		}
	}
	return d
}

// reportPackage runs the reporting pass over every function body and
// function literal of an in-scope package.
func (u *unitcheckState) reportPackage(pass *analysis.Pass) {
	for _, fn := range pass.Funcs() {
		u.analyzeFunc(pass, fn, true)
	}
	for _, f := range pass.Files {
		// Function literals are analyzed as independent functions: captured
		// variables are unknown (safe), parameters follow the naming
		// conventions.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				u.analyzeFuncLit(pass, lit, true)
			}
			return true
		})
	}
}

// analyzeFunc runs the flow engine over one function declaration and
// returns the dimensions of its return statements' first results.
func (u *unitcheckState) analyzeFunc(pass *analysis.Pass, fn analysis.Func, report bool) []Dim {
	cfg := pass.CFG(fn.Decl.Body)
	c := &unitChecker{u: u, pass: pass, scope: fn.Decl, fname: fn.Obj.Name()}
	env := &unitEnv{vars: map[types.Object]Dim{}}
	sig := fn.Obj.Type().(*types.Signature)
	declared, _ := u.sigOf(pass, fn.Obj)
	u.seedParams(env, sig.Params(), declared.params)
	u.seedResults(c, env, sig.Results(), declared.results)
	in := analysis.Forward(cfg, env, c.transfer)
	c.reporting = report
	c.collectReturns = !report
	analysis.ReplayBlocks(cfg, in, c.transfer)
	return c.returns
}

// analyzeFuncLit analyzes a function literal's body with convention-seeded
// parameters only.
func (u *unitcheckState) analyzeFuncLit(pass *analysis.Pass, lit *ast.FuncLit, report bool) {
	cfg := pass.CFG(lit.Body)
	c := &unitChecker{u: u, pass: pass, scope: lit, fname: "func literal"}
	env := &unitEnv{vars: map[types.Object]Dim{}}
	if sig, ok := pass.TypesInfo.TypeOf(lit).(*types.Signature); ok {
		u.seedParams(env, sig.Params(), nil)
		u.seedResults(c, env, sig.Results(), nil)
	}
	in := analysis.Forward(cfg, env, c.transfer)
	c.reporting = report
	analysis.ReplayBlocks(cfg, in, c.transfer)
}

// seedParams gives parameters their declared (table) dimensions, falling
// back to naming conventions for numeric parameters.
func (u *unitcheckState) seedParams(env *unitEnv, params *types.Tuple, declared []Dim) {
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		d := Dim("")
		if i < len(declared) {
			d = declared[i]
		}
		if d == "" {
			d = u.nameDim(p.Name(), p.Type())
		}
		if d != "" {
			env.vars[p] = d
		}
	}
}

// seedResults records the function's declared result dimensions for return
// checking and seeds named result variables.
func (u *unitcheckState) seedResults(c *unitChecker, env *unitEnv, results *types.Tuple, declared []Dim) {
	c.resultDims = make([]Dim, results.Len())
	for i := 0; i < results.Len(); i++ {
		r := results.At(i)
		d := Dim("")
		if i < len(declared) {
			d = declared[i]
		}
		if d == "" && r.Name() != "" {
			d = u.nameDim(r.Name(), r.Type())
		}
		c.resultDims[i] = d
		if d != "" && r.Name() != "" {
			env.vars[r] = d
		}
	}
}

// nameDim applies the naming conventions to a numeric identifier.
func (u *unitcheckState) nameDim(name string, t types.Type) Dim {
	if name == "" || name == "_" || !isNumericType(t) {
		return ""
	}
	if d, ok := u.cfg.ParamNames[name]; ok {
		return d
	}
	for _, rule := range u.cfg.Suffixes {
		if strings.HasSuffix(name, rule.Suffix) {
			return rule.Dim // may be "": blocker suffixes stop the scan
		}
	}
	return ""
}

// sigOf resolves a function's dimensional signature: fact store first
// (annotations and inference), then the declaration table.
func (u *unitcheckState) sigOf(pass *analysis.Pass, fn *types.Func) (unitSig, bool) {
	if v, ok := pass.Facts.Get(fn, unitSigFact); ok {
		sig, _ := v.(unitSig)
		return sig, true
	}
	if sig, ok := u.sigs[funcQName(fn)]; ok {
		return sig, true
	}
	return unitSig{}, false
}

// objDim resolves a non-field object's dimension: fact store, then the
// declaration table (package-level objects only), then "constants are
// dimensionless".
func (u *unitcheckState) objDim(pass *analysis.Pass, obj types.Object) Dim {
	if v, ok := pass.Facts.Get(obj, unitFact); ok {
		d, _ := v.(Dim)
		return d
	}
	if pkg := obj.Pkg(); pkg != nil && obj.Parent() == pkg.Scope() {
		if d, ok := u.decls[pkg.Path()+"."+obj.Name()]; ok {
			return d
		}
	}
	if _, isConst := obj.(*types.Const); isConst {
		return DimScalar
	}
	return ""
}

// fieldDim resolves a struct field's dimension: annotation fact, then the
// table by "pkg.Owner.Field", then the "pkg.Owner.*" wildcard (numeric
// fields only).
func (u *unitcheckState) fieldDim(pass *analysis.Pass, obj types.Object, owner *types.Named) Dim {
	if v, ok := pass.Facts.Get(obj, unitFact); ok {
		d, _ := v.(Dim)
		return d
	}
	if owner == nil || owner.Obj().Pkg() == nil {
		return ""
	}
	prefix := owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "."
	if d, ok := u.decls[prefix+obj.Name()]; ok {
		return d
	}
	if d, ok := u.decls[prefix+"*"]; ok && isNumericType(obj.Type()) {
		return d
	}
	return ""
}

func isNumericType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// conflict reports whether two dimensions are confidently incompatible:
// both known, different, and neither dimensionless.
func conflict(a, b Dim) bool {
	return a != "" && b != "" && a != b && a != DimScalar && b != DimScalar
}

// isLatency reports whether a dimension is a time/duration quantity.
func isLatency(d Dim) bool { return d == DimCycles || d == DimNS || d == DimPS }

// addSubDim combines dimensions under +/-: same dimension is preserved,
// dimensionless and unknown defer to the other side.
func addSubDim(a, b Dim) Dim {
	if a == b {
		return a
	}
	if a == "" || a == DimScalar {
		if b == "" {
			return a
		}
		return b
	}
	return a // b is unknown/scalar (conflicts are reported before this)
}

// mulDim applies the dimensional algebra of multiplication. The second
// result flags a latency product (cycles*ns and friends), which has no
// meaning in the simulator.
func mulDim(a, b Dim) (Dim, bool) {
	if a == DimScalar {
		return b, false
	}
	if b == DimScalar {
		return a, false
	}
	if a == "" || b == "" {
		return "", false
	}
	switch {
	case pairIs(a, b, DimNS, DimGHz):
		return DimCycles, false
	case pairIs(a, b, DimCycles, DimNSPerCycle):
		return DimNS, false
	case pairIs(a, b, DimBPC, DimCycles):
		return DimBytes, false
	case pairIs(a, b, DimGBs, DimNS):
		return DimBytes, false
	}
	if isLatency(a) && isLatency(b) {
		return "", true
	}
	return "", false
}

func pairIs(a, b, x, y Dim) bool { return (a == x && b == y) || (a == y && b == x) }

// divDim applies the dimensional algebra of division.
func divDim(a, b Dim) Dim {
	if b == DimScalar {
		return a
	}
	if b == "" || a == "" {
		return ""
	}
	if a == b {
		return DimScalar
	}
	switch {
	case a == DimCycles && b == DimGHz:
		return DimNS
	case a == DimScalar && b == DimGHz:
		return DimNSPerCycle
	case a == DimNS && b == DimNSPerCycle:
		return DimCycles
	case a == DimNS && b == DimCycles:
		return DimNSPerCycle
	case a == DimBytes && b == DimCycles:
		return DimBPC
	case a == DimBytes && b == DimBPC:
		return DimCycles
	case a == DimBytes && b == DimGBs:
		return DimNS // 1 GB/s is exactly 1 byte/ns
	case a == DimBytes && b == DimNS:
		return DimGBs // ... and bytes over ns is GB/s
	case a == DimGBs && b == DimGHz:
		return DimBPC
	}
	return ""
}

// remDim: a remainder keeps the dividend's dimension when the divisor is
// compatible (cycle alignment like now % tREFI), else unknown.
func remDim(a, b Dim) Dim {
	if b == DimScalar || a == b {
		return a
	}
	return ""
}

// unitEnv is the flow state: dimensions of local variables (parameters,
// named results, locals). Absent means untracked (unknown).
type unitEnv struct {
	vars map[types.Object]Dim
}

func (e *unitEnv) Clone() analysis.FlowState {
	m := make(map[types.Object]Dim, len(e.vars))
	for k, v := range e.vars {
		m[k] = v
	}
	return &unitEnv{vars: m}
}

func (e *unitEnv) Join(other analysis.FlowState) bool {
	o := other.(*unitEnv)
	changed := false
	for k, v := range o.vars {
		cur, ok := e.vars[k]
		if !ok {
			// Visible on only one path (declared in a branch): adopt.
			if v != "" {
				e.vars[k] = v
				changed = true
			}
			continue
		}
		if cur != "" && cur != v {
			e.vars[k] = "" // disagreement joins to unknown
			changed = true
		}
	}
	return changed
}

// unitChecker evaluates one function under one pass.
type unitChecker struct {
	u     *unitcheckState
	pass  *analysis.Pass
	scope ast.Node // the FuncDecl/FuncLit: objects declared within are locals
	fname string

	resultDims []Dim
	reporting  bool

	collectReturns bool
	returns        []Dim
}

func (c *unitChecker) reportf(pos token.Pos, format string, args ...any) {
	if c.reporting {
		c.pass.Reportf(pos, format, args...)
	}
}

// transfer is the abstract-interpretation step for one CFG node.
func (c *unitChecker) transfer(n ast.Node, s analysis.FlowState) {
	env := s.(*unitEnv)
	switch x := n.(type) {
	case *ast.RangeStmt:
		c.rangeHead(x, env)
	case ast.Stmt:
		c.stmt(x, env)
	case ast.Expr:
		c.expr(x, env)
	}
}

func (c *unitChecker) stmt(s ast.Stmt, env *unitEnv) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		c.assign(x, env)
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			var dims []Dim
			for _, v := range vs.Values {
				dims = append(dims, c.expr(v, env))
			}
			for i, name := range vs.Names {
				d := Dim("")
				if i < len(dims) {
					d = dims[i]
				}
				c.bindIdent(name, d, env)
			}
		}
	case *ast.ExprStmt:
		c.expr(x.X, env)
	case *ast.SendStmt:
		c.expr(x.Chan, env)
		c.expr(x.Value, env)
	case *ast.IncDecStmt:
		c.expr(x.X, env)
	case *ast.GoStmt:
		c.expr(x.Call, env)
	case *ast.DeferStmt:
		c.expr(x.Call, env)
	case *ast.ReturnStmt:
		c.returnStmt(x, env)
	}
}

// rangeHead handles the RangeStmt node the CFG places in the loop head:
// evaluate the ranged expression and bind key/value.
func (c *unitChecker) rangeHead(x *ast.RangeStmt, env *unitEnv) {
	xd := c.expr(x.X, env)
	keyDim, valDim := Dim(""), Dim("")
	if t := c.pass.TypesInfo.TypeOf(x.X); t != nil {
		switch t.Underlying().(type) {
		case *types.Slice, *types.Array, *types.Pointer, *types.Basic:
			// Indices are counts; elements carry the container's dimension
			// (a []int64 of cycle stamps indexes as scalar, yields cycles).
			keyDim, valDim = DimScalar, xd
		}
	}
	if id, ok := x.Key.(*ast.Ident); ok && x.Tok == token.DEFINE {
		c.bindIdent(id, keyDim, env)
	}
	if id, ok := x.Value.(*ast.Ident); ok && x.Tok == token.DEFINE {
		c.bindIdent(id, valDim, env)
	}
}

func (c *unitChecker) returnStmt(x *ast.ReturnStmt, env *unitEnv) {
	for i, res := range x.Results {
		d := c.expr(res, env)
		if i == 0 && c.collectReturns && len(x.Results) > 0 {
			c.returns = append(c.returns, d)
		}
		if i < len(c.resultDims) && conflict(d, c.resultDims[i]) {
			c.reportf(res.Pos(), "return of %s: %s is declared to return %s", d, c.fname, c.resultDims[i])
		}
	}
}

func (c *unitChecker) assign(x *ast.AssignStmt, env *unitEnv) {
	// Compound assignment: x op= y behaves as x = x op y.
	if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
		lhs := x.Lhs[0]
		target := c.expr(lhs, env)
		rhs := c.expr(x.Rhs[0], env)
		var res Dim
		switch x.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			if conflict(target, rhs) {
				c.reportf(x.Pos(), "cross-dimension arithmetic: %s %s %s", target, x.Tok, rhs)
			}
			res = addSubDim(target, rhs)
		case token.MUL_ASSIGN:
			var latency bool
			res, latency = mulDim(target, rhs)
			if latency {
				c.reportf(x.Pos(), "multiplying two latencies (%s * %s)", target, rhs)
			}
		case token.QUO_ASSIGN:
			res = divDim(target, rhs)
		case token.REM_ASSIGN:
			res = remDim(target, rhs)
		case token.SHL_ASSIGN, token.SHR_ASSIGN:
			res = target
		}
		c.store(lhs, res, env)
		return
	}

	var dims []Dim
	if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
		dims = c.tupleDims(x.Rhs[0], len(x.Lhs), env)
	} else {
		for _, r := range x.Rhs {
			dims = append(dims, c.expr(r, env))
		}
	}
	for i, l := range x.Lhs {
		d := Dim("")
		if i < len(dims) {
			d = dims[i]
		}
		c.store(l, d, env)
	}
}

// tupleDims evaluates a multi-value RHS (call, map index, type assert) and
// spreads its result dimensions.
func (c *unitChecker) tupleDims(e ast.Expr, n int, env *unitEnv) []Dim {
	first := c.expr(e, env)
	dims := make([]Dim, n)
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if fn := calleeOf(c.pass.TypesInfo, call); fn != nil {
			if sig, ok := c.u.sigOf(c.pass, fn); ok {
				copy(dims, sig.results)
				return dims
			}
		}
	}
	dims[0] = first
	return dims
}

// store assigns a dimension to an lvalue, checking declared dimensions
// (fields, seeded package vars) and local naming conventions.
func (c *unitChecker) store(l ast.Expr, d Dim, env *unitEnv) {
	switch x := ast.Unparen(l).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := objOf(c.pass.TypesInfo, x)
		if obj == nil {
			return
		}
		if declaredWithin(obj, c.scope) {
			c.bindIdent(x, d, env)
			return
		}
		// Package-level variable with a seeded/annotated dimension.
		if want := c.u.objDim(c.pass, obj); conflict(d, want) {
			c.reportf(l.Pos(), "assigning %s to %s, which is declared %s", d, x.Name, want)
		}
	case *ast.SelectorExpr:
		c.expr(x.X, env)
		if sel, ok := c.pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
			want := c.u.fieldDim(c.pass, sel.Obj(), namedOf(sel.Recv()))
			if conflict(d, want) {
				c.reportf(l.Pos(), "assigning %s to field %s, which is declared %s", d, x.Sel.Name, want)
			}
		}
	case *ast.IndexExpr:
		c.expr(x.X, env)
		c.expr(x.Index, env)
	case *ast.StarExpr:
		c.expr(x.X, env)
	}
}

// bindIdent records a local's dimension, cross-checking the naming
// convention: a variable whose name says ns should not receive cycles.
func (c *unitChecker) bindIdent(id *ast.Ident, d Dim, env *unitEnv) {
	if id.Name == "_" {
		return
	}
	obj := objOf(c.pass.TypesInfo, id)
	if obj == nil {
		return
	}
	expected := c.u.nameDim(id.Name, obj.Type())
	if conflict(d, expected) {
		c.reportf(id.Pos(), "%s is assigned %s, but its name suggests %s", id.Name, d, expected)
	}
	if d == "" && expected != "" {
		d = expected // trust the name when the value is untracked
	}
	env.vars[obj] = d
}

// expr computes the dimension of an expression, reporting conflicts found
// inside it.
func (c *unitChecker) expr(e ast.Expr, env *unitEnv) Dim {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return c.expr(x.X, env)
	case *ast.BasicLit:
		return DimScalar
	case *ast.Ident:
		obj := objOf(c.pass.TypesInfo, x)
		if obj == nil {
			return ""
		}
		if d, ok := env.vars[obj]; ok {
			return d
		}
		if declaredWithin(obj, c.scope) {
			return "" // untracked local
		}
		return c.u.objDim(c.pass, obj)
	case *ast.SelectorExpr:
		return c.selector(x, env)
	case *ast.CallExpr:
		return c.call(x, env)
	case *ast.BinaryExpr:
		return c.binary(x, env)
	case *ast.UnaryExpr:
		d := c.expr(x.X, env)
		if x.Op == token.SUB || x.Op == token.ADD {
			return d
		}
		return ""
	case *ast.StarExpr:
		return c.expr(x.X, env)
	case *ast.IndexExpr:
		d := c.expr(x.X, env)
		c.expr(x.Index, env)
		return d
	case *ast.SliceExpr:
		d := c.expr(x.X, env)
		for _, idx := range []ast.Expr{x.Low, x.High, x.Max} {
			if idx != nil {
				c.expr(idx, env)
			}
		}
		return d
	case *ast.CompositeLit:
		c.composite(x, env)
		return ""
	case *ast.TypeAssertExpr:
		c.expr(x.X, env)
		return ""
	}
	return ""
}

func (c *unitChecker) selector(x *ast.SelectorExpr, env *unitEnv) Dim {
	if sel, ok := c.pass.TypesInfo.Selections[x]; ok {
		c.expr(x.X, env)
		if sel.Kind() == types.FieldVal {
			return c.u.fieldDim(c.pass, sel.Obj(), namedOf(sel.Recv()))
		}
		return "" // method value
	}
	// Package-qualified name (clock.FreqGHz, math.MaxInt64, ...).
	if obj := objOf(c.pass.TypesInfo, x.Sel); obj != nil {
		if _, isFunc := obj.(*types.Func); !isFunc {
			return c.u.objDim(c.pass, obj)
		}
	}
	return ""
}

func (c *unitChecker) call(x *ast.CallExpr, env *unitEnv) Dim {
	// Builtins: len/cap are counts; min/max require agreeing dimensions.
	switch builtinName(c.pass.TypesInfo, x) {
	case "len", "cap":
		for _, a := range x.Args {
			c.expr(a, env)
		}
		return DimScalar
	case "min", "max":
		var joined Dim
		for _, a := range x.Args {
			d := c.expr(a, env)
			if conflict(d, joined) {
				c.reportf(a.Pos(), "min/max across dimensions: %s vs %s", joined, d)
			}
			joined = addSubDim(joined, d)
		}
		return joined
	case "":
		// not a builtin
	default:
		for _, a := range x.Args {
			c.expr(a, env)
		}
		return ""
	}

	// Type conversions are transparent for numeric targets: int64(x) and
	// float64(x) do not change what x measures. (This is what catches a
	// "raw cast" replacing clock.Cycles: the ns dimension survives the
	// cast and collides downstream.)
	if tv, ok := c.pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
		d := c.expr(x.Args[0], env)
		if isNumericType(tv.Type) {
			return d
		}
		return ""
	}

	fn := calleeOf(c.pass.TypesInfo, x)
	var sig unitSig
	hasSig := false
	if fn != nil {
		sig, hasSig = c.u.sigOf(c.pass, fn)
	}
	variadic := false
	if fn != nil {
		if s, ok := fn.Type().(*types.Signature); ok {
			variadic = s.Variadic()
		}
	}
	for i, arg := range x.Args {
		ad := c.expr(arg, env)
		if hasSig && !variadic && !x.Ellipsis.IsValid() && i < len(sig.params) {
			if conflict(ad, sig.params[i]) {
				c.reportf(arg.Pos(), "argument %d to %s is %s, parameter is declared %s", i+1, fn.Name(), ad, sig.params[i])
			}
		}
	}
	if hasSig {
		return sig.result()
	}
	return ""
}

func (c *unitChecker) binary(x *ast.BinaryExpr, env *unitEnv) Dim {
	a := c.expr(x.X, env)
	b := c.expr(x.Y, env)
	switch x.Op {
	case token.ADD, token.SUB:
		if conflict(a, b) {
			c.reportf(x.OpPos, "cross-dimension arithmetic: %s %s %s", a, x.Op, b)
		}
		return addSubDim(a, b)
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		if conflict(a, b) {
			c.reportf(x.OpPos, "comparing %s to %s", a, b)
		}
		return DimScalar
	case token.MUL:
		d, latency := mulDim(a, b)
		if latency {
			c.reportf(x.OpPos, "multiplying two latencies (%s * %s)", a, b)
		}
		return d
	case token.QUO:
		return divDim(a, b)
	case token.REM:
		return remDim(a, b)
	case token.SHL, token.SHR:
		return a
	case token.LAND, token.LOR:
		return DimScalar
	}
	return "" // bit operations: address math, hashes
}

// composite checks struct literal fields against their declared dimensions.
func (c *unitChecker) composite(x *ast.CompositeLit, env *unitEnv) {
	named := namedOf(c.pass.TypesInfo.TypeOf(x))
	var st *types.Struct
	if named != nil {
		st, _ = named.Underlying().(*types.Struct)
	}
	for i, el := range x.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			vd := c.expr(kv.Value, env)
			key, ok := kv.Key.(*ast.Ident)
			if !ok || st == nil {
				continue
			}
			if obj := objOf(c.pass.TypesInfo, key); obj != nil {
				if want := c.u.fieldDim(c.pass, obj, named); conflict(vd, want) {
					c.reportf(kv.Value.Pos(), "field %s.%s is declared %s, got %s", named.Obj().Name(), key.Name, want, vd)
				}
			}
			continue
		}
		vd := c.expr(el, env)
		if st != nil && i < st.NumFields() {
			if want := c.u.fieldDim(c.pass, st.Field(i), named); conflict(vd, want) {
				c.reportf(el.Pos(), "field %s.%s is declared %s, got %s", named.Obj().Name(), st.Field(i).Name(), want, vd)
			}
		}
	}
}
