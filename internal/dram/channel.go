package dram

import (
	"math"

	"coaxial/internal/memreq"
)

// Channel bundles a DDR channel's sub-channels and implements
// memreq.Backend for direct-attached (baseline) DDR memory. Requests are
// interleaved across sub-channels by a folded line hash.
type Channel struct {
	cfg  Config
	subs []*SubChannel

	// lazy enables per-sub-channel event skipping: Tick consults a cached
	// next-event cycle per sub-channel and skips those that are provably
	// inert. Off by default so the cycle-by-cycle reference loop stays a
	// naive tick-everything loop; the event-driven loop turns it on.
	lazy bool
	// subNext caches each sub-channel's NextEvent, maintained by Tick and
	// clamped down by Enqueue wakes. Valid only while lazy.
	subNext []int64
}

// NewChannel builds a channel. systemSubChannels is the total number of
// sub-channels across all channels in the system, used to densify each
// sub-channel's decoded address space.
func NewChannel(cfg Config, systemSubChannels int) *Channel {
	if systemSubChannels < cfg.SubChannels {
		systemSubChannels = cfg.SubChannels
	}
	c := &Channel{cfg: cfg}
	for i := 0; i < cfg.SubChannels; i++ {
		c.subs = append(c.subs, NewSubChannel(cfg, systemSubChannels))
	}
	return c
}

// subOf selects the sub-channel index for an address.
func (c *Channel) subOf(addr uint64) int {
	if len(c.subs) == 1 {
		return 0
	}
	line := addr >> memreq.LineShift
	h := line ^ (line >> 7) ^ (line >> 13)
	return int(h % uint64(len(c.subs)))
}

// SetLazy switches per-sub-channel event skipping on or off. Turning it on
// marks every sub-channel due so the next Tick seeds the cache.
func (c *Channel) SetLazy(on bool) {
	c.lazy = on
	c.subNext = nil
	if on {
		c.subNext = make([]int64, len(c.subs))
		for i := range c.subNext {
			c.subNext[i] = math.MinInt64
		}
	}
}

// Enqueue implements memreq.Backend.
func (c *Channel) Enqueue(r *memreq.Request, at int64) bool {
	i := c.subOf(r.Addr)
	if !c.subs[i].Enqueue(r, at) {
		return false
	}
	if c.lazy && at < c.subNext[i] {
		// Wake the sub-channel for the arrival. If its tick for cycle `at`
		// already ran, its own clock guard defers processing to the next
		// Tick — the same cycle the naive loop would process it.
		c.subNext[i] = at
	}
	return true
}

// Tick implements memreq.Backend. In lazy mode only sub-channels whose
// cached next event has come due are ticked; skipped sub-channels are
// provably inert at this cycle (NextEvent's contract), so behaviour is
// bit-identical to ticking everything.
func (c *Channel) Tick(now int64) {
	if !c.lazy {
		for _, s := range c.subs {
			s.Tick(now)
		}
		return
	}
	for i, s := range c.subs {
		if c.subNext[i] <= now {
			s.Tick(now)
			c.subNext[i] = s.NextEvent(now)
		}
	}
}

// NextEvent implements memreq.Backend: the channel's next event is the
// earliest next event across its sub-channels (served from the lazy cache
// when enabled).
func (c *Channel) NextEvent(now int64) int64 {
	next := int64(math.MaxInt64)
	if c.lazy {
		for _, t := range c.subNext {
			if t < next {
				next = t
			}
		}
		return next
	}
	for _, s := range c.subs {
		if t := s.NextEvent(now); t < next {
			next = t
		}
	}
	return next
}

// Sync implements memreq.Backend: realize lagging background accounting in
// every sub-channel without simulating events.
func (c *Channel) Sync(now int64) {
	for _, s := range c.subs {
		s.Sync(now)
	}
}

// PeakGBs implements memreq.Backend.
func (c *Channel) PeakGBs() float64 { return c.cfg.PeakGBs() }

// Counters sums all sub-channel activity counters.
func (c *Channel) Counters() Counters {
	var total Counters
	for _, s := range c.subs {
		total.Accumulate(s.Counters())
	}
	return total
}

// ResetCounters zeroes all sub-channel counters.
func (c *Channel) ResetCounters() {
	for _, s := range c.subs {
		s.ResetCounters()
	}
}

// Idle reports whether every sub-channel has drained.
func (c *Channel) Idle() bool {
	for _, s := range c.subs {
		if !s.Idle() {
			return false
		}
	}
	return true
}

// SubChannels exposes the underlying sub-channels (for CXL type-3 devices
// and tests).
func (c *Channel) SubChannels() []*SubChannel { return c.subs }

// ForEachPending visits every request any sub-channel currently owns (for
// validation walks).
func (c *Channel) ForEachPending(fn func(*memreq.Request)) {
	for _, s := range c.subs {
		s.ForEachPending(fn)
	}
}
