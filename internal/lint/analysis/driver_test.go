package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// runDriver type-checks the sources as package p, one file each, and
// drives the analyzers over it.
func runDriver(t *testing.T, srcs []string, edit func(*types.Info), analyzers ...*Analyzer) error {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for i, src := range srcs {
		f, err := parser.ParseFile(fset, fmt.Sprintf("p%d.go", i), src, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{}).Check("p", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(info)
	}
	_, err = NewDriver(analyzers, fset, "", false, nil).Package(files, pkg, info, true)
	return err
}

func TestFuncsFileOrderSkipsBodilessAndObjectless(t *testing.T) {
	srcs := []string{
		"package p\nfunc b() {}\nfunc external()\nfunc a() {}\nfunc noObj() {}\n",
		"package p\nfunc c() {}\n",
	}
	dropNoObj := func(info *types.Info) {
		for id := range info.Defs {
			if id.Name == "noObj" {
				delete(info.Defs, id)
			}
		}
	}
	var got []string
	walk := &Analyzer{Name: "walk", Run: func(p *Pass) error {
		for _, fn := range p.Funcs() {
			if fn.Obj.Name() != fn.Decl.Name.Name {
				t.Errorf("object %s paired with declaration %s", fn.Obj.Name(), fn.Decl.Name.Name)
			}
			got = append(got, fn.Obj.Name())
		}
		return nil
	}}
	if err := runDriver(t, srcs, dropNoObj, walk); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != "b a c" {
		t.Errorf("Funcs = %v, want [b a c]", got)
	}
}

func TestCFGSharedAcrossAnalyzers(t *testing.T) {
	src := "package p\nfunc f(x int) int {\n\tif x > 0 {\n\t\treturn x\n\t}\n\treturn -x\n}\nfunc g() {}\n"
	var graphs []*CFG
	record := func(p *Pass) error {
		for _, fn := range p.Funcs() {
			graphs = append(graphs, p.CFG(fn.Decl.Body))
		}
		graphs = append(graphs, p.CFG(p.Funcs()[0].Decl.Body))
		return nil
	}
	if err := runDriver(t, []string{src}, nil,
		&Analyzer{Name: "first", Run: record}, &Analyzer{Name: "second", Run: record}); err != nil {
		t.Fatal(err)
	}
	// Per analyzer: f, g, then f again.
	if len(graphs) != 6 {
		t.Fatalf("got %d graphs, want 6", len(graphs))
	}
	for _, i := range []int{2, 3, 5} {
		if graphs[i] != graphs[0] {
			t.Errorf("graph %d for f's body is not the cached one", i)
		}
	}
	if graphs[4] != graphs[1] {
		t.Error("second analyzer rebuilt g's graph")
	}
	if graphs[1] == graphs[0] {
		t.Error("distinct bodies share a graph")
	}
}

// chainSrc declares f0 -> f1 -> ... -> f5, where only f5 is a leaf, in
// the given order of function indices.
func chainSrc(order []int) string {
	var b strings.Builder
	b.WriteString("package p\n")
	for _, i := range order {
		if i == 5 {
			fmt.Fprintf(&b, "func f%d() {}\n", i)
		} else {
			fmt.Fprintf(&b, "func f%d() { f%d() }\n", i, i+1)
		}
	}
	return b.String()
}

// reachesLeaf summarizes whether a function is the leaf or calls a
// function whose summary says it reaches the leaf: a summary that only
// grows, one call edge per round at worst.
func reachesLeaf(p *Pass, fn Func) bool {
	if fn.Obj.Name() == "f5" {
		return true
	}
	reaches := false
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if callee, ok := p.TypesInfo.Uses[id].(*types.Func); ok && p.Facts.Bool(callee, "leaf") {
				reaches = true
			}
		}
		return true
	})
	return reaches
}

func TestSummarizeConvergesInAnyOrder(t *testing.T) {
	for _, c := range []struct {
		name  string
		order []int
		// rounds is how many rounds Summarize runs: one per level the
		// order leaves unresolved, plus the round that changes nothing.
		rounds int
	}{
		{"callees-first", []int{5, 4, 3, 2, 1, 0}, 2},
		{"callers-first", []int{0, 1, 2, 3, 4, 5}, 7},
		{"interleaved", []int{2, 5, 0, 4, 1, 3}, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			rounds := 0
			a := &Analyzer{Name: "leafcheck"}
			a.Run = func(p *Pass) error {
				fns := p.Funcs()
				err := Summarize(p, "leaf", fns, func(p *Pass, fn Func) bool {
					if fn.Decl == fns[0].Decl {
						rounds++
					}
					return reachesLeaf(p, fn)
				}, func(x, y bool) bool { return x == y })
				for _, fn := range fns {
					if !p.Facts.Bool(fn.Obj, "leaf") {
						t.Errorf("%s does not reach the leaf", fn.Obj.Name())
					}
				}
				return err
			}
			if err := runDriver(t, []string{chainSrc(c.order)}, nil, a); err != nil {
				t.Fatal(err)
			}
			if rounds != c.rounds {
				t.Errorf("Summarize ran %d rounds, want %d", rounds, c.rounds)
			}
		})
	}
}

func TestSummarizeErrorsWhenSummariesKeepChanging(t *testing.T) {
	a := &Analyzer{Name: "counting"}
	a.Run = func(p *Pass) error {
		n := 0
		return Summarize(p, "count", p.Funcs(), func(*Pass, Func) int {
			n++
			return n
		}, func(x, y int) bool { return x == y })
	}
	err := runDriver(t, []string{"package p\nfunc a() {}\nfunc b() {}\n"}, nil, a)
	if err == nil {
		t.Fatal("a summary that never settles converged")
	}
	for _, want := range []string{"counting", `"count"`, "package p", "after 3 rounds"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}
