// Package memreq defines the memory request type exchanged between the
// cache hierarchy and the memory backends (direct-DDR or CXL-attached), the
// Backend interface those backends implement, and physical address mapping
// helpers.
package memreq

// Kind discriminates memory request types at the memory-system boundary.
type Kind uint8

const (
	// Read is a demand read (including RFOs, which occupy the bus like
	// reads).
	Read Kind = iota
	// Write is a write-back of a dirty 64B line.
	Write
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return "invalid"
	}
}

// LineSize is the cache line (and memory transfer) granularity in bytes.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// Completer receives completed requests from a memory backend.
type Completer interface {
	// Complete is invoked by the backend when the request's data has been
	// delivered back to the requester (after any CXL response path).
	Complete(r *Request, now int64)
}

// Request is one 64-byte memory transaction. The timestamps decompose the
// end-to-end latency the way the paper's breakdown figures do.
type Request struct {
	// Addr is the physical line-aligned address.
	Addr uint64
	// Kind is Read or Write.
	Kind Kind
	// Core identifies the issuing core (for per-core stats); -1 if N/A.
	Core int16
	// Host identifies the issuing host in rack-scale topologies where
	// several hosts share pooled CXL devices (per-host fairness accounting
	// and validation walks over shared device queues); 0 for single-host
	// systems.
	Host int16
	// CALM marks a concurrent LLC/memory access whose response may be
	// discarded if the LLC hits.
	CALM bool

	// Issue is the cycle the request left the L2 miss register.
	Issue int64 //lint:unit cycles
	// ArriveMC is the cycle the request entered the DDR controller queue
	// (on the type-3 device for CXL configurations).
	ArriveMC int64 //lint:unit cycles
	// StartSvc is the cycle the first DRAM command for this request
	// issued; ArriveMC..StartSvc is the controller queuing delay.
	StartSvc int64 //lint:unit cycles
	// DataDone is the cycle the DRAM data burst finished.
	DataDone int64 //lint:unit cycles
	// CXLTime accumulates cycles spent in CXL ports, serialization, and
	// link arbitration across both directions; 0 for direct DDR.
	CXLTime int64 //lint:unit cycles
	// Spill accumulates cycles spent blocked outside the backend when its
	// ingress queue was full (counted as queuing delay in breakdowns).
	Spill int64 //lint:unit cycles
	// AckAt is the earliest cycle the requester allows completion to be
	// observed (e.g. a CALM access must wait for the LLC's response even
	// if memory answers first).
	AckAt int64 //lint:unit cycles
	// Discard marks a CALM request whose LLC lookup hit: the memory
	// response is dropped on arrival (wasted bandwidth, a false positive).
	Discard bool

	// Ret receives the completion callback: a read's data returned, or a
	// write's data committed. A simulated System sets itself on every
	// request it creates; nil (raw backend users only) leaves the
	// completion unobserved.
	Ret Completer
	// Inner is used by interposing backends (the CXL channel) to remember
	// the requester's completer while the request is inside the device.
	Inner Completer
	// Meta is scratch space for the requester (e.g. MSHR index).
	Meta uint64

	// owner/gen are the Arena bookkeeping of an arena-allocated request:
	// owner is the allocating arena (nil for plain heap requests) and gen
	// its liveness generation (odd while allocated; bumped on both alloc
	// and release so stale handles are detectable). Managed exclusively by
	// Arena — see arena.go.
	owner *Arena
	gen   uint32
}

// QueueDelay returns the controller queuing component in cycles.
func (r *Request) QueueDelay() int64 { return r.StartSvc - r.ArriveMC }

// ServiceTime returns the DRAM service component in cycles.
func (r *Request) ServiceTime() int64 { return r.DataDone - r.StartSvc }

// Backend is the interface of a memory subsystem attachment point: either a
// direct DDR controller group or a CXL channel fronting a type-3 device.
type Backend interface {
	// Enqueue hands a request to the backend at the given cycle. The
	// request may be scheduled to arrive at a future cycle (at is allowed
	// to be >= now). Enqueue returns false if the backend's ingress queue
	// is full and the caller must retry.
	Enqueue(r *Request, at int64) bool
	// Tick advances the backend to the given cycle. Tick must be called
	// with monotonically non-decreasing cycles; re-ticking an
	// already-simulated cycle is a no-op.
	Tick(now int64)
	// NextEvent returns the earliest cycle after `now` at which Tick could
	// make progress (deliver an arrival or completion, issue a command, or
	// start a refresh): the event-driven loop skips the backend until
	// then. The bound is conservative — ticking earlier is harmless — and
	// backends that cannot prove a gap return now+1. A backend with no
	// scheduled work returns math.MaxInt64; new work arriving via Enqueue
	// obliges the caller to re-tick at the enqueued arrival cycle.
	NextEvent(now int64) int64
	// Sync realizes any lagging per-cycle accounting (e.g. open-bank
	// background-power integration) up to `now` without simulating events.
	// The event-driven loop calls it before reading or resetting counters
	// on a backend it has lazily skipped. Unlike Tick, Sync must never
	// deliver completions, admit arrivals, or issue commands: work enqueued
	// at the current cycle after the backend already ticked must wait for
	// the next Tick, exactly as it would under cycle-by-cycle clocking.
	Sync(now int64)
	// PeakGBs returns the backend's peak deliverable bandwidth in GB/s
	// (reads+writes) for utilization accounting.
	PeakGBs() float64
}

// LineAddr masks an address down to its line-aligned form.
func LineAddr(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// Interleave describes how line addresses spread across channels.
// Channel selection uses bits immediately above the line offset XOR-folded
// with higher bits so that strided patterns still distribute.
type Interleave struct {
	// Channels is the number of backends; must be a power of two or any
	// positive integer (modulo distribution is used when not a power of
	// two).
	Channels int
}

// ChannelOf maps a line address to a channel index in [0, Channels).
func (iv Interleave) ChannelOf(addr uint64) int {
	if iv.Channels <= 1 {
		return 0
	}
	line := addr >> LineShift
	// Fold higher-order bits in so that power-of-two strides spread.
	h := line ^ (line >> 8) ^ (line >> 16)
	return int(h % uint64(iv.Channels))
}
