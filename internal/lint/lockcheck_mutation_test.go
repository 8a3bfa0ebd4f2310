package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
	"coaxial/internal/lint/loader"
)

// concMutation plants one concurrency or lifetime bug into a real source
// file via the loader's overlay and demands the named analyzer catches it
// at the planted position. The bug classes mirror what the analyzers
// exist for: dropped unlocks, accesses hoisted out of critical sections,
// blocking sends smuggled under a lock, releases reordered before uses,
// and ownership annotations deleted out from under escape sites.
type concMutation struct {
	name string
	// file is repo-relative; old must occur exactly once and is replaced
	// by new.
	file     string
	old, new string
	// second, when non-empty, is a second replacement in the same file.
	second [2]string
	// patterns lists the packages to load (the mutated one last).
	patterns []string
	// wantSub must appear in at least one diagnostic of the analyzer in
	// file.
	wantSub string
}

func lockMutations() []concMutation {
	return []concMutation{
		{
			name: "store-get-unlock-dropped",
			file: "internal/serve/store.go",
			old: `func (st *store) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}`,
			new: `func (st *store) get(id string) (*job, bool) {
	st.mu.Lock()
	j, ok := st.jobs[id]
	return j, ok
}`,
			patterns: []string{"coaxial/internal/serve"},
			wantSub:  "still held when get returns",
		},
		{
			name: "store-create-seq-before-lock",
			file: "internal/serve/store.go",
			old: `	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++`,
			new: `	st.seq++
	st.mu.Lock()
	defer st.mu.Unlock()`,
			patterns: []string{"coaxial/internal/serve"},
			wantSub:  "write of seq requires mu, which is not held",
		},
		{
			name: "store-markrunning-double-lock",
			file: "internal/serve/store.go",
			old: `	st.mu.Lock()
	defer st.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning`,
			new: `	st.mu.Lock()
	st.mu.Lock()
	defer st.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning`,
			patterns: []string{"coaxial/internal/serve"},
			wantSub:  "may already be held (self-deadlock)",
		},
		{
			name: "store-notepoint-lock-dropped",
			file: "internal/serve/store.go",
			old: `func (st *store) notePoint(j *job, pr PointResult) {
	st.mu.Lock()
	defer st.mu.Unlock()`,
			new: `func (st *store) notePoint(j *job, pr PointResult) {
	defer st.mu.Unlock()`,
			patterns: []string{"coaxial/internal/serve"},
			wantSub:  "Unlock of mu, which is not held",
		},
		{
			name: "store-broadcast-bare-send",
			file: "internal/serve/store.go",
			old: `	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}`,
			new: `	for _, ch := range j.subs {
		ch <- ev
	}`,
			patterns: []string{"coaxial/internal/serve"},
			wantSub:  "channel send while holding mu",
		},
		{
			name: "store-snapshot-helper-before-lock",
			file: "internal/serve/store.go",
			old: `	st.mu.Lock()
	defer st.mu.Unlock()
	return *st.snapshotLocked(j)`,
			new: `	out := *st.snapshotLocked(j)
	st.mu.Lock()
	defer st.mu.Unlock()
	return out`,
			patterns: []string{"coaxial/internal/serve"},
			wantSub:  "call to snapshotLocked requires mu, which is not held",
		},
		{
			name: "server-healthz-read-before-lock",
			file: "internal/serve/server.go",
			old: `	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()`,
			new: `	draining := s.draining
	s.mu.Lock()
	s.mu.Unlock()`,
			patterns: []string{"coaxial/internal/serve"},
			wantSub:  "access to draining requires mu, which is not held",
		},
		{
			name: "runner-warmstats-entries-before-lock",
			file: "runner.go",
			old: `	r.warm.mu.Lock()
	defer r.warm.mu.Unlock()
	return WarmStats{Entries: len(r.warm.entries), Captures: r.warm.captures}`,
			new: `	n := len(r.warm.entries)
	r.warm.mu.Lock()
	defer r.warm.mu.Unlock()
	return WarmStats{Entries: n, Captures: r.warm.captures}`,
			patterns: []string{"coaxial"},
			wantSub:  "access to entries requires mu, which is not held",
		},
	}
}

func handleMutations() []concMutation {
	return []concMutation{
		{
			name: "sim-discard-release-falls-through",
			file: "internal/sim/system.go",
			old: `	if r.Discard {
		s.fpDiscarded++
		s.arena.Release(r)
		return
	}
	core := int(r.Core)`,
			new: `	if r.Discard {
		s.fpDiscarded++
		s.arena.Release(r)
	}
	core := int(r.Core)`,
			patterns: []string{"coaxial/internal/sim"},
			wantSub:  "use of handle after release",
		},
		{
			name: "sim-retired-double-release",
			file: "internal/sim/system.go",
			old: `	if s.val != nil {
		s.val.lc.OnRetire(r)
	}
	s.arena.Release(r)
}`,
			new: `	if s.val != nil {
		s.val.lc.OnRetire(r)
	}
	s.arena.Release(r)
	s.arena.Release(r)
}`,
			patterns: []string{"coaxial/internal/sim"},
			wantSub:  "double release",
		},
		{
			name: "sim-complete-release-before-measuring",
			file: "internal/sim/system.go",
			old: `	s.wakeCore(slot, s.now+1)
	s.fillFromMemory(core, line, dirty, now)`,
			new: `	s.wakeCore(slot, s.now+1)
	s.fillFromMemory(core, line, dirty, now)
	s.arena.Release(r)`,
			patterns: []string{"coaxial/internal/sim"},
			wantSub:  "use of handle after release",
		},
		{
			name: "sim-writeback-escapes-unannotated-field",
			file: "internal/sim/system.go",
			old: `	sliceTile := s.coreTiles[s.llc.SliceOf(addr)]
	s.send(r, ch, now+s.mesh.Latency(sliceTile, s.portTiles[ch]))`,
			new: `	sliceTile := s.coreTiles[s.llc.SliceOf(addr)]
	s.lastWB = r
	s.send(r, ch, now+s.mesh.Latency(sliceTile, s.portTiles[ch]))`,
			second: [2]string{
				"	policy calm.Policy\n",
				"	policy calm.Policy\n\tlastWB *memreq.Request\n",
			},
			patterns: []string{"coaxial/internal/sim"},
			wantSub:  "live handle stored into field lastWB",
		},
		{
			name: "dram-reqqueue-owns-deleted",
			file: "internal/dram/subchannel.go",
			old: `	keys []entryKey
	//lint:owns popped on completion and released by the completer or the retired drain
	reqs []*memreq.Request`,
			new: `	keys []entryKey
	reqs []*memreq.Request`,
			patterns: []string{"coaxial/internal/dram"},
			wantSub:  "live handle stored into field reqs",
		},
		{
			name: "cxl-retired-owns-deleted",
			file: "internal/cxl/pooled.go",
			old: `	//lint:owns handed to the owning System's retired drain by DrainRetired, which releases them
	retired []*memreq.Request`,
			new:      `	retired []*memreq.Request`,
			patterns: []string{"coaxial/internal/cxl"},
			wantSub:  "live handle stored into field retired",
		},
		{
			name: "validate-reads-owns-deleted",
			file: "internal/validate/lifecycle.go",
			old: `	//lint:owns tracking keys only; entries are deleted on completion/retire, never dereferenced after release
	reads map[*memreq.Request]struct{}`,
			new:      `	reads map[*memreq.Request]struct{}`,
			patterns: []string{"coaxial/internal/validate"},
			wantSub:  "live handle stored into field reads",
		},
	}
}

// runConcMutation applies one mutation and runs a single analyzer over the
// overlay, demanding a diagnostic containing wantSub in the mutated file.
func runConcMutation(t *testing.T, root, analyzerName string, mk func() *analysis.Analyzer, m concMutation) {
	t.Helper()
	path := filepath.Join(root, m.file)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := string(orig)
	if strings.Count(src, m.old) != 1 {
		t.Fatalf("mutation anchor occurs %d times in %s, want 1:\n%s",
			strings.Count(src, m.old), m.file, m.old)
	}
	mutated := strings.Replace(src, m.old, m.new, 1)
	if m.second[0] != "" {
		if strings.Count(mutated, m.second[0]) != 1 {
			t.Fatalf("second anchor occurs %d times in %s, want 1:\n%s",
				strings.Count(mutated, m.second[0]), m.file, m.second[0])
		}
		mutated = strings.Replace(mutated, m.second[0], m.second[1], 1)
	}

	prog, err := loader.LoadOverlay(root,
		map[string][]byte{path: []byte(mutated)}, m.patterns...)
	if err != nil {
		t.Fatalf("load with mutation: %v", err)
	}
	diags, err := lint.Run(prog, []*analysis.Analyzer{mk()})
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}

	var hit bool
	var inFile []string
	for _, d := range diags {
		if d.Analyzer != analyzerName || !strings.HasSuffix(d.Pos.Filename, m.file) {
			continue
		}
		inFile = append(inFile, d.String())
		if strings.Contains(d.Message, m.wantSub) {
			hit = true
		}
	}
	if !hit {
		t.Errorf("mutation not caught: want a %s diagnostic containing %q in %s; got %d in file:\n%s",
			analyzerName, m.wantSub, m.file, len(inFile), strings.Join(inFile, "\n"))
		for _, d := range diags {
			t.Logf("all: %s", d)
		}
	}
}

func TestLockCheckMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation suite shells out to go list per case")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range lockMutations() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			runConcMutation(t, root, "lockcheck", func() *analysis.Analyzer {
				return lint.NewLockCheck(lint.DefaultLockConfig())
			}, m)
		})
	}
}

func TestHandleCheckMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation suite shells out to go list per case")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range handleMutations() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			runConcMutation(t, root, "handlecheck", func() *analysis.Analyzer {
				return lint.NewHandleCheck(lint.DefaultHandleConfig())
			}, m)
		})
	}
}
