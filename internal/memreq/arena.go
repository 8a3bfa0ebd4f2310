package memreq

import "fmt"

// arenaSlab is the number of Requests added per freelist refill. Slabs are
// allocated as single blocks so recycled requests stay dense in memory.
const arenaSlab = 256

// Arena is a freelist allocator for Requests. A loaded simulation window
// issues ~100k requests whose lifetimes all end inside the window (reads at
// their completion callback, write-backs when their CAS retires), so the
// steady state recycles a small working set — a few hundred live requests —
// instead of allocating each one on the heap and feeding it to the garbage
// collector.
//
// Every request carries a liveness generation (odd while allocated, bumped
// on both alloc and release), so a double release or a use of a released
// request is detectable: Release checks the generation before touching the
// freelist, and Handle captures the generation at a point in time for later
// revalidation (the lifecycle checker's escaped-handle test).
//
// An Arena is not safe for concurrent use. Each simulated system owns one
// and ticks on one goroutine, so the per-system arena needs no locking.
type Arena struct {
	slabs [][]Request
	//lint:owns the freelist is the released state; Alloc hands slots back out
	free []*Request
	live int

	allocs, releases uint64

	// failf reports an invariant violation (double release, foreign
	// request). The default panics; the validation harness reroutes it into
	// the lifecycle checker's report.
	failf func(format string, args ...any)
}

// NewArena returns an empty arena. Invariant violations panic until
// SetFailf installs a softer handler.
func NewArena() *Arena {
	return &Arena{
		failf: func(format string, args ...any) {
			panic(fmt.Sprintf("memreq: arena: "+format, args...))
		},
	}
}

// SetFailf replaces the invariant-violation handler (nil is ignored). The
// handler must not allocate from or release into this arena.
func (a *Arena) SetFailf(f func(format string, args ...any)) {
	if f != nil {
		a.failf = f
	}
}

// Alloc returns a zeroed Request owned by the arena. The request stays
// valid until Release; releasing bumps its generation, so dangling
// references are detectable via IsLive/Handle.
func (a *Arena) Alloc() *Request {
	if len(a.free) == 0 {
		a.grow() //lint:alloc slab growth, amortized to zero once the freelist covers the live peak
	}
	n := len(a.free) - 1
	r := a.free[n]
	a.free[n] = nil
	a.free = a.free[:n]
	*r = Request{owner: a, gen: r.gen + 1} // odd generation = live
	a.live++
	a.allocs++
	return r
}

func (a *Arena) grow() {
	slab := make([]Request, arenaSlab)
	a.slabs = append(a.slabs, slab)
	for i := range slab {
		slab[i].owner = a
		a.free = append(a.free, &slab[i])
	}
}

// Release returns a request to the freelist. Releasing a request that is
// not live — already released, never arena-allocated, or owned by another
// arena — reports through the failure handler and leaves the freelist
// untouched (so a recorded violation cannot also corrupt the arena).
func (a *Arena) Release(r *Request) {
	if r == nil {
		a.failf("release of nil request")
		return
	}
	if r.owner != a {
		a.failf("release of request %#x not owned by this arena", r.Addr) //lint:alloc invariant failure, reported once and never on a correct run
		return
	}
	if r.gen&1 == 0 {
		a.failf("double release of request %#x (generation %d)", r.Addr, r.gen) //lint:alloc invariant failure, reported once and never on a correct run
		return
	}
	r.gen++
	a.live--
	a.releases++
	a.free = append(a.free, r)
}

// Owns reports whether r was allocated from this arena (live or not).
func (a *Arena) Owns(r *Request) bool { return r != nil && r.owner == a }

// IsLive reports whether r is a currently-allocated request of this arena.
// A released (or foreign) request reports false — the escaped-handle check
// walks the memory system's queues and flags any request that fails it.
func (a *Arena) IsLive(r *Request) bool {
	return r != nil && r.owner == a && r.gen&1 == 1
}

// Live returns the number of currently-allocated requests.
func (a *Arena) Live() int { return a.live }

// Allocs returns the total number of Alloc calls.
func (a *Arena) Allocs() uint64 { return a.allocs }

// Releases returns the total number of successful Release calls.
func (a *Arena) Releases() uint64 { return a.releases }

// Handle is a generation-checked reference to an arena request: it captures
// the request's generation at HandleOf time and revalidates it on use, so a
// handle held across the request's release (an escaped handle) resolves to
// nil instead of aliasing whatever the slot was recycled into.
type Handle struct {
	//lint:owns generation-checked weak reference; Request() revalidates before use
	r   *Request
	gen uint32
}

// HandleOf captures a generation-checked handle for r.
func (a *Arena) HandleOf(r *Request) Handle {
	if r == nil || r.owner != a {
		return Handle{}
	}
	return Handle{r: r, gen: r.gen}
}

// Request resolves the handle: the request if its generation still matches
// (it has not been released or recycled since capture), else nil.
func (h Handle) Request() *Request {
	if h.r == nil || h.r.gen != h.gen {
		return nil
	}
	return h.r
}

// Live reports whether the handle still resolves to a live request.
func (h Handle) Live() bool {
	return h.r != nil && h.r.gen == h.gen && h.gen&1 == 1
}
