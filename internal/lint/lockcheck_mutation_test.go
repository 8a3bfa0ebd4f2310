package lint_test

import (
	"testing"

	"coaxial/internal/lint"
	"coaxial/internal/lint/analysis"
)

// lockMutations plant concurrency bugs into the serve layer and the
// Runner warm cache: dropped unlocks, accesses hoisted out of critical
// sections, blocking sends smuggled under a lock, and a double lock.
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
			want:     []string{"still held when get returns"},
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
			want:     []string{"write of seq requires mu, which is not held"},
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
			want:     []string{"may already be held (self-deadlock)"},
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
			want:     []string{"Unlock of mu, which is not held"},
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
			want:     []string{"channel send while holding mu"},
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
			want:     []string{"call to snapshotLocked requires mu, which is not held"},
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
			want:     []string{"access to draining requires mu, which is not held"},
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
			want:     []string{"access to entries requires mu, which is not held"},
		},
	}
}

// handleMutations plant arena-lifetime bugs: releases reordered before
// uses, a double release, and ownership annotations deleted out from
// under escape sites.
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
			want:     []string{"use of handle after release"},
		},
		{
			name: "sim-retired-double-release",
			file: "internal/sim/system.go",
			old: `	if r.Kind == memreq.Write {
		s.arena.Release(r)
		return
	}`,
			new: `	if r.Kind == memreq.Write {
		s.arena.Release(r)
		s.arena.Release(r)
		return
	}`,
			patterns: []string{"coaxial/internal/sim"},
			want:     []string{"double release"},
		},
		{
			name: "sim-complete-release-before-measuring",
			file: "internal/sim/system.go",
			old: `	s.wakeCore(core, s.now+1)
	s.fillFromMemory(core, line, dirty, now)`,
			new: `	s.wakeCore(core, s.now+1)
	s.fillFromMemory(core, line, dirty, now)
	s.arena.Release(r)`,
			patterns: []string{"coaxial/internal/sim"},
			want:     []string{"use of handle after release"},
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
			want:     []string{"live handle stored into field lastWB"},
		},
		{
			name: "dram-reqqueue-owns-deleted",
			file: "internal/dram/subchannel.go",
			old: `	keys []entryKey
	//lint:owns popped at CAS issue and released by the completer
	reqs []*memreq.Request`,
			new: `	keys []entryKey
	reqs []*memreq.Request`,
			patterns: []string{"coaxial/internal/dram"},
			want:     []string{"live handle stored into field reqs"},
		},
		{
			name: "cxl-retired-owns-deleted",
			file: "internal/cxl/pooled.go",
			old: `	//lint:owns handed to DrainRetired's caller, which owns them from then on
	retired []*memreq.Request`,
			new:      `	retired []*memreq.Request`,
			patterns: []string{"coaxial/internal/cxl"},
			want:     []string{"live handle stored into field retired"},
		},
		{
			name: "validate-reads-owns-deleted",
			file: "internal/validate/lifecycle.go",
			old: `	//lint:owns tracking keys only; entries are deleted on completion, never dereferenced after release
	reads map[*memreq.Request]struct{}`,
			new:      `	reads map[*memreq.Request]struct{}`,
			patterns: []string{"coaxial/internal/validate"},
			want:     []string{"live handle stored into field reads"},
		},
	}
}

func TestLockCheckMutations(t *testing.T) {
	runMutations(t, func() *analysis.Analyzer { return lint.NewLockCheck(lint.DefaultLockConfig()) }, lockMutations())
}

func TestHandleCheckMutations(t *testing.T) {
	runMutations(t, func() *analysis.Analyzer { return lint.NewHandleCheck(lint.DefaultHandleConfig()) }, handleMutations())
}
