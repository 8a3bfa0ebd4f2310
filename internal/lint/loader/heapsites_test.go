package loader

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseHeapSites feeds the parser one real go1.24.0 -m line of every
// form it accepts, and lines it must refuse. Only "escapes to heap" and
// "moved to heap" lines become sites, positioned in the parsed files; an
// overlaid file's site keeps its on-disk name; a site in a file the
// program did not parse is dropped; anything else is an error that names
// the line.
func TestParseHeapSites(t *testing.T) {
	dir := t.TempDir()
	fset := token.NewFileSet()
	// Stand-ins for the parsed files, long and wide enough for every
	// position below.
	src := "package p\n" + strings.Repeat(strings.Repeat(" ", 80)+"\n", 420)
	var files []*ast.File
	for _, name := range []string{"internal/memreq/arena.go", "internal/cache/cache.go", "internal/cxl/pooled.go"} {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), src, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}

	cases := []struct {
		line string
		// site is the expected "file:line:col: message" relative to dir;
		// empty means the line is accepted and yields no site.
		site string
		// err, when set, is a substring the error must contain.
		err string
	}{
		{line: "# coaxial/internal/memreq"},
		{line: "internal/memreq/arena.go:42:10: can inline NewArena.func1"},
		{line: "internal/memreq/arena.go:61:9: inlining call to (*Arena).grow"},
		{
			line: `internal/memreq/arena.go:43:21: fmt.Sprintf("memreq: arena: " + format, args...) escapes to heap`,
			site: `internal/memreq/arena.go:43:21: fmt.Sprintf("memreq: arena: " + format, args...) escapes to heap`,
		},
		{line: "internal/memreq/arena.go:42:15: format does not escape"},
		{
			line: "internal/cache/cache.go:86:2: moved to heap: d",
			site: "internal/cache/cache.go:86:2: moved to heap: d",
		},
		{line: "internal/area/area.go:101:14: leaking param: name to result ~r0 level=0"},
		{line: "internal/memreq/arena.go:42:30: leaking param content: args"},
		{line: "internal/cpu/core.go:206:59: index bounds check elided"},
		{line: "internal/memreq/arena.go:66:9: (*Arena).Alloc ignoring self-assignment in a.free = a.free[:n]"},
		{line: "<autogenerated>:1: inlining call to ServerConfig.DieArea"},
		// From a mutation-suite run: the overlaid file keeps its name.
		{
			line: "internal/cxl/pooled.go:408:19: make([]int64, 0) escapes to heap",
			site: "internal/cxl/pooled.go:408:19: make([]int64, 0) escapes to heap",
		},
		// A file the program did not parse.
		{line: "internal/area/area.go:40:23: []ServerConfig{...} escapes to heap"},

		{line: "internal/memreq/arena.go:61:9: cannot inline (*Arena).grow: function too complex", err: "cannot inline (*Arena).grow"},
		{line: "internal/memreq/arena.go:3:25: not enough return values", err: "not enough return values"},
		{line: "go: downloading example.com/m v1.0.0", err: "go: downloading"},
		{line: "# coaxial/internal/memreq\n", err: `""`},
		{line: "internal/memreq/arena.go:999:1: x escapes to heap", err: "arena.go:999:1"},
	}
	if sites, err := ParseHeapSites("", dir, fset, files); err != nil || len(sites) != 0 {
		t.Errorf("empty output: sites %v, error %v; want neither", sites, err)
	}
	for _, tc := range cases {
		sites, err := ParseHeapSites(tc.line+"\n", dir, fset, files)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%q: error %v, want one naming %q", tc.line, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.line, err)
			continue
		}
		var got []string
		for _, s := range sites {
			rel, _ := filepath.Rel(dir, fset.Position(s.Pos).String())
			got = append(got, rel+": "+s.Message)
		}
		if want := tc.site; strings.Join(got, "\n") != want {
			t.Errorf("%q: sites %q, want %q", tc.line, got, want)
		}
	}
}
