package lint_test

import (
	"errors"
	"strings"
	"testing"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
)

// allocMutations plants allocation bugs into real hot-path sources — the
// regressions alloccheck exists to catch: per-tick buffer resets with a
// fresh make, un-hinted append growth, stray fmt construction, interface
// boxing of scalars, map allocation inside a drain, a field retaining a
// per-tick slice, a deleted //lint:alloc justification resurrecting the
// finding it covered, and the two escapes a hand-built model of the
// compiler's escape analysis missed: a closure handed to a callee that
// stores it, and a declared variable whose address escapes. One bug per
// class, spread across the sim, cpu, dram, cxl and rack layers; the
// escape cases are caught through the compiler's own -m sites.
func allocMutations() []concMutation {
	return []concMutation{
		{
			name:     "sim-drain-fresh-make-instead-of-reslice",
			file:     "internal/sim/system.go",
			old:      `		s.coreEvents[i] = evs[:0]`,
			new:      `		s.coreEvents[i] = make([]memEvent, 0)`,
			patterns: []string{"coaxial/internal/sim"},
			want:     []string{"heap allocation in hot path: make([]memEvent, 0) escapes to heap"},
		},
		{
			name: "sim-duecores-append-without-hint",
			file: "internal/sim/system.go",
			old:  `	due := s.dueCores[:0]`,
			new:  `	due := []int{}`,
			// Drop the retaining store so the un-hinted growth, not the
			// field escape, is the finding under test.
			second: [2]string{
				"	s.dueCores = due\n",
				"	_ = due\n",
			},
			patterns: []string{"coaxial/internal/sim"},
			want:     []string{"append in a loop grows due, which was created without a capacity hint"},
		},
		{
			name: "sim-complete-sprintf-trace",
			file: "internal/sim/system.go",
			old: `		s.val.lc.OnComplete(r, now) //lint:alloc validation hook; allocates only when recording an invariant failure
	}
	if r.Kind == memreq.Write {`,
			new: `		s.val.lc.OnComplete(r, now) //lint:alloc validation hook; allocates only when recording an invariant failure
	}
	_ = fmt.Sprintf("complete %x at %d", r.Addr, now)
	if r.Kind == memreq.Write {`,
			patterns: []string{"coaxial/internal/sim"},
			want:     []string{"call to fmt.Sprintf allocates in hot path"},
		},
		{
			name:     "sim-onissue-justification-deleted",
			file:     "internal/sim/system.go",
			old:      `		s.val.lc.OnIssue(r, at) //lint:alloc validation hook; allocates only when recording an invariant failure`,
			new:      `		s.val.lc.OnIssue(r, at)`,
			patterns: []string{"coaxial/internal/sim"},
			// Complete, a hot root, reaches OnIssue only through
			// fillFromMemory → writeback → send, so its finding at the
			// fillFromMemory call needs the summaries to converge.
			want: []string{
				"call to OnIssue allocates in hot path",
				"call to fillFromMemory allocates in hot path",
			},
		},
		{
			name: "cpu-tick-boxes-scalar",
			file: "internal/cpu/core.go",
			old: `	c.lastTick = now
	c.issueDeferred(now)`,
			new: `	c.lastTick = now
	var trace interface{} = now
	_ = trace
	c.issueDeferred(now)`,
			patterns: []string{"coaxial/internal/cpu"},
			want:     []string{"interface boxing in hot path"},
		},
		{
			name: "cpu-resolvemiss-map-literal",
			file: "internal/cpu/core.go",
			old: `	s := c.pending[idx]
	last := len(c.pending) - 1`,
			new: `	s := c.pending[idx]
	trace := map[uint64]int64{line: when}
	_ = trace
	last := len(c.pending) - 1`,
			patterns: []string{"coaxial/internal/cpu"},
			want:     []string{"map literal always allocates"},
		},
		{
			name: "cpu-rob-alloc-boxes-interprocedurally",
			file: "internal/cpu/core.go",
			old: `	seq := c.tailSeq
	c.tailSeq++`,
			new: `	seq := c.tailSeq
	var dbg interface{} = seq
	_ = dbg
	c.tailSeq++`,
			patterns: []string{"coaxial/internal/cpu"},
			want:     []string{"call to alloc allocates in hot path"},
		},
		{
			name: "dram-tick-make-map",
			file: "internal/dram/subchannel.go",
			old: `	// Move due arrivals into the scheduler queues.
	arrived := false`,
			new: `	// Move due arrivals into the scheduler queues.
	seen := make(map[uint64]bool)
	_ = seen
	arrived := false`,
			patterns: []string{"coaxial/internal/dram"},
			want:     []string{"make of a map always allocates"},
		},
		{
			name: "dram-arrival-loop-invariant-map",
			file: "internal/dram/subchannel.go",
			old: `		arrived = true
		row, bnk, grp := s.decode(r.Addr)`,
			new: `		arrived = true
		prio := map[int]int{0: 1}
		_ = prio[0]
		row, bnk, grp := s.decode(r.Addr)`,
			patterns: []string{"coaxial/internal/dram"},
			want:     []string{"map literal always allocates"},
		},
		{
			name: "cxl-tick-retains-fresh-slice",
			file: "internal/cxl/pooled.go",
			old: `	p.now = now

	// Deliver due responses to the original requesters.`,
			new: `	p.now = now
	p.traceBuf = make([]int64, 0)

	// Deliver due responses to the original requesters.`,
			second: [2]string{
				"	dev          *PooledDevice\n",
				"	dev          *PooledDevice\n\ttraceBuf []int64\n",
			},
			patterns: []string{"coaxial/internal/cxl"},
			want:     []string{"heap allocation in hot path: make([]int64, 0) escapes to heap"},
		},
		{
			name: "rack-step-closure-to-storing-callee",
			file: "internal/rack/rack.go",
			old: `	for _, s := range rk.hosts {
		s.TickCycle(next)
	}`,
			new: `	rk.each(func(i int) { rk.hosts[i].TickCycle(next) })`,
			// each keeps its callback in the rack, the way a worker pool
			// hands work to its threads.
			second: [2]string{
				"	measureStart int64\n}\n",
				"	measureStart int64\n\twork func(int)\n}\n\nfunc (rk *rack) each(f func(int)) {\n\trk.work = f\n\tfor i := range rk.hosts {\n\t\trk.work(i)\n\t}\n}\n",
			},
			patterns: []string{"coaxial/internal/rack"},
			want:     []string{"heap allocation in hot path: func literal escapes to heap"},
		},
		{
			name: "rack-step-declared-var-address-escapes",
			file: "internal/rack/rack.go",
			old: `	rk.now = next
	return next, rk.Done()`,
			new: `	var phase int64
	rk.last = &phase
	rk.now = next
	return next, rk.Done()`,
			second: [2]string{
				"	measureStart int64\n}\n",
				"	measureStart int64\n\tlast *int64\n}\n",
			},
			patterns: []string{"coaxial/internal/rack"},
			want:     []string{"heap allocation in hot path: moved to heap: phase"},
		},
	}
}

func TestAllocCheckMutations(t *testing.T) {
	runMutations(t, newAllocCheck, allocMutations())
}

func newAllocCheck() *analysis.Analyzer { return lint.NewAllocCheck(lint.DefaultAllocConfig()) }

// applyFixFor finds the diagnostic matching wantSub, requires it to carry
// a suggested fix, applies the fix against the in-memory mutated file, and
// returns the result.
func applyFixFor(t *testing.T, diags []analysis.Diagnostic, wantSub, path string, content []byte) string {
	t.Helper()
	// Interprocedural summaries repeat the site message inside the caller
	// finding's reason chain; the fix rides on the site finding itself.
	var picked *analysis.Diagnostic
	for i := range diags {
		if strings.Contains(diags[i].Message, wantSub) && diags[i].Fix != nil {
			picked = &diags[i]
			break
		}
	}
	if picked == nil {
		t.Fatalf("no diagnostic containing %q with a suggested fix; got %d diagnostics", wantSub, len(diags))
	}
	files := map[string][]byte{path: content}
	read := func(name string) ([]byte, error) {
		b, ok := files[name]
		if !ok {
			return nil, errors.New("unexpected file " + name)
		}
		return b, nil
	}
	write := func(name string, b []byte) error { files[name] = b; return nil }
	if _, err := analysis.ApplyFixes([]analysis.Diagnostic{*picked}, read, write); err != nil {
		t.Fatalf("applying fix: %v", err)
	}
	return string(files[path])
}

// TestAllocCheckCapacityHintFix: the un-hinted append finding carries an
// edit that sizes the slice to the ranged collection.
func TestAllocCheckCapacityHintFix(t *testing.T) {
	root := mutationRoot(t)
	m := concMutation{
		file: "internal/sim/system.go",
		old:  `	due := s.dueCores[:0]`,
		new:  `	due := []int{}`,
		second: [2]string{
			"	s.dueCores = due\n",
			"	_ = due\n",
		},
		patterns: []string{"coaxial/internal/sim"},
	}
	diags, path, mutated := mutateAndLint(t, root, newAllocCheck(), m)
	fixed := applyFixFor(t, diags, "append in a loop grows due", path, mutated)
	want := "due := make([]int, 0, len(s.cores))"
	if !strings.Contains(fixed, want) {
		t.Errorf("capacity-hint fix did not produce %q", want)
	}
}

// TestAllocCheckHoistFix: a loop-invariant, read-only allocation inside a
// hot loop gets hoisted above the loop — a map literal, which a syntactic
// rule reports, and a make the compiler puts on the heap because its size
// is known only at run time, whose fix is keyed on the compiler's site.
func TestAllocCheckHoistFix(t *testing.T) {
	root := mutationRoot(t)
	for _, tc := range []struct{ stmt, use, finding string }{
		{"prio := map[int]int{0: 1}", "_ = prio[0]", "map literal always allocates"},
		{"window := make([]int64, now)", "_ = len(window)", "make([]int64, now) escapes to heap"},
	} {
		m := concMutation{
			file:     "internal/dram/subchannel.go",
			old:      "\t\tarrived = true\n\t\trow, bnk, grp := s.decode(r.Addr)",
			new:      "\t\tarrived = true\n\t\t" + tc.stmt + "\n\t\t" + tc.use + "\n\t\trow, bnk, grp := s.decode(r.Addr)",
			patterns: []string{"coaxial/internal/dram"},
		}
		diags, path, mutated := mutateAndLint(t, root, newAllocCheck(), m)
		fixed := applyFixFor(t, diags, tc.finding, path, mutated)
		// The defining statement moves above the loop; its old line empties.
		if !strings.Contains(fixed, tc.stmt+"\n\tfor {") {
			t.Errorf("hoist fix did not move %q above the loop; got:\n%s", tc.stmt, excerptAround(fixed, tc.stmt))
		}
		if strings.Count(fixed, tc.stmt) != 1 {
			t.Errorf("hoist fix duplicated %q:\n%s", tc.stmt, excerptAround(fixed, tc.stmt))
		}
	}
}

// excerptAround returns a few lines surrounding the first occurrence of
// sub, for failure messages.
func excerptAround(s, sub string) string {
	i := strings.Index(s, sub)
	if i < 0 {
		return "(absent)"
	}
	lo, hi := i-200, i+200
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}
