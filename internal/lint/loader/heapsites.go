package loader

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"coaxial/internal/lint/analysis"
)

// heapLine splits a go1.24 -m line into file, line and column (absent on
// compiler-generated wrappers) and message. siteForm matches the messages
// that report a heap allocation, otherForm every other message -m prints.
var (
	heapLine  = regexp.MustCompile(`^(?:(.+\.go):(\d+):(\d+)|<autogenerated>:\d+): (.+)$`)
	siteForm  = regexp.MustCompile(` escapes to heap$|^moved to heap: `)
	otherForm = regexp.MustCompile(`^(can inline |inlining call to |leaking param: |leaking param content: )|` +
		` does not escape$|^index bounds check elided$| ignoring self-assignment in `)
)

// ParseHeapSites parses what the compiler prints under -gcflags=-m (the
// stderr of a go command run in dir, an absolute path) into the heap
// allocations it reports inside files, sorted by position and without
// repeats. Relative file names resolve against dir; sites in other files
// (the standard library, compiler-generated wrappers) are dropped. Any
// line not in a form go1.24 prints — a toolchain that words them
// differently — or a site outside its file is an error naming the line.
func ParseHeapSites(out, dir string, fset *token.FileSet, files []*ast.File) ([]analysis.HeapSite, error) {
	byName := map[string]*token.File{}
	for _, f := range files {
		tf := fset.File(f.Pos())
		name, err := filepath.Abs(tf.Name())
		if err != nil {
			return nil, err
		}
		byName[name] = tf
	}
	var lines []string
	if out != "" {
		lines = strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	}
	var sites []analysis.HeapSite
	seen := map[analysis.HeapSite]bool{}
	for _, line := range lines {
		if strings.HasPrefix(line, "# ") {
			continue // package header
		}
		m := heapLine.FindStringSubmatch(line)
		switch {
		case m == nil || !siteForm.MatchString(m[4]) && !otherForm.MatchString(m[4]):
			return nil, fmt.Errorf("unrecognised compiler output line %q", line)
		case !siteForm.MatchString(m[4]) || m[1] == "":
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		tf := byName[file]
		if tf == nil {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		if ln < 1 || ln > tf.LineCount() || col < 1 || tf.Offset(tf.LineStart(ln))+col-1 > tf.Size() {
			return nil, fmt.Errorf("compiler site %q lies outside %s", line, tf.Name())
		}
		site := analysis.HeapSite{Pos: tf.LineStart(ln) + token.Pos(col-1), Message: m[4]}
		if !seen[site] {
			seen[site] = true
			sites = append(sites, site)
		}
	}
	sort.SliceStable(sites, func(i, j int) bool { return sites[i].Pos < sites[j].Pos })
	return sites, nil
}
