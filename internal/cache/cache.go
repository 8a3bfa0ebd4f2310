// Package cache implements the set-associative caches of the simulated
// hierarchy: per-core L1/L2 and the distributed, shared, non-inclusive LLC.
//
// Caches here are timing-functional: lookups and fills mutate the state at
// issue time while latencies are applied by the caller (the hierarchy model
// in internal/sim). This is the standard fast-simulation compromise — it
// preserves hit/miss behaviour, capacity and conflict effects, and dirty
// write-back traffic, which are what the memory-system study needs.
package cache

import "coaxial/internal/memreq"

// Config sizes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Assoc is the set associativity.
	Assoc int
	// LatencyCycles is the lookup (hit) latency.
	LatencyCycles int64
}

// Way metadata is one set-major word per way: the line address packed
// with the state bits (tag<<2 | dirty<<1 | valid; an invalid way is 0).
// Each set keeps its ways in recency order: way 0 is the most recently
// used, the valid ways form a prefix, and the last valid way is the LRU
// way. A hit or a fill moves its way to the front, so replacement needs no
// second array and no scan: a full set evicts its last way.
const (
	tagValid uint64 = 1 << 0
	tagDirty uint64 = 1 << 1
	tagShift        = 2
)

// Cache is a single set-associative write-back, write-allocate cache with
// per-set LRU replacement.
type Cache struct {
	cfg   Config
	sets  int
	mask  uint64
	tags  []uint64 // sets*assoc, set-major, each set MRU first: tag<<2 | dirty<<1 | valid
	stats Stats
}

// Stats counts cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Fills      uint64
	DirtyEvict uint64
	CleanEvict uint64
}

// New constructs a cache. SizeBytes/Assoc must yield a power-of-two set
// count; New panics otherwise (configurations are static and validated at
// system construction).
func New(cfg Config) *Cache {
	if cfg.Assoc < 1 {
		panic("cache: associativity must be >= 1")
	}
	setBytes := cfg.Assoc * memreq.LineSize
	if cfg.SizeBytes%setBytes != 0 {
		panic("cache: size not divisible by assoc*line")
	}
	sets := cfg.SizeBytes / setBytes
	if sets&(sets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	return &Cache{
		cfg:  cfg,
		sets: sets,
		mask: uint64(sets - 1),
		tags: make([]uint64, sets*cfg.Assoc),
	}
}

// Clone returns an independent deep copy of the cache, including contents,
// LRU state, and counters. Used to snapshot warmed state between runs.
func (c *Cache) Clone() *Cache {
	d := *c
	d.tags = append([]uint64(nil), c.tags...)
	return &d
}

// Latency returns the configured hit latency.
func (c *Cache) Latency() int64 { return c.cfg.LatencyCycles }

// Sets returns the number of sets (for tests).
func (c *Cache) Sets() int { return c.sets }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) index(lineAddr uint64) uint64 {
	// Fold high bits so distinct per-core address spaces spread over sets.
	h := lineAddr ^ (lineAddr >> 17) ^ (lineAddr >> 31)
	return h & c.mask
}

// setBase returns the flat index of lineAddr's set (its first way).
func (c *Cache) setBase(lineAddr uint64) int {
	return int(c.index(lineAddr)) * c.cfg.Assoc
}

// Lookup probes the cache for addr, updating LRU on a hit. If markDirty is
// set and the line hits, it is marked dirty (store hit).
func (c *Cache) Lookup(addr uint64, markDirty bool) bool {
	la := addr >> memreq.LineShift
	base := c.setBase(la)
	tags := c.tags[base : base+c.cfg.Assoc]
	want := la<<tagShift | tagValid
	c.stats.Accesses++
	for i, t := range tags {
		if t&^tagDirty == want {
			if markDirty {
				t |= tagDirty
			}
			toFront(tags, i, t)
			c.stats.Hits++
			return true
		}
		if t == 0 {
			break
		}
	}
	c.stats.Misses++
	return false
}

// Probe checks residency without updating LRU or counters.
func (c *Cache) Probe(addr uint64) bool {
	la := addr >> memreq.LineShift
	base := c.setBase(la)
	tags := c.tags[base : base+c.cfg.Assoc]
	want := la<<tagShift | tagValid
	for _, t := range tags {
		if t&^tagDirty == want {
			return true
		}
		if t == 0 {
			break
		}
	}
	return false
}

// Victim describes a line displaced by a fill.
type Victim struct {
	Addr  uint64
	Dirty bool
	Valid bool
}

// Fill inserts addr (allocating on miss); dirty sets the installed line's
// dirty bit (e.g. an RFO fill or a write-back allocation). The displaced
// victim, if any, is returned for the caller to propagate.
func (c *Cache) Fill(addr uint64, dirty bool) Victim {
	la := addr >> memreq.LineShift
	base := c.setBase(la)
	tags := c.tags[base : base+c.cfg.Assoc]
	want := la<<tagShift | tagValid
	c.stats.Fills++
	t := want
	if dirty {
		t |= tagDirty
	}

	// One pass: refresh the line if already present (e.g. a racing fill),
	// merging the dirty bit; otherwise stop at the first invalid way. If
	// the set is full, the last way is the LRU one.
	vi := len(tags) - 1
	for i, old := range tags {
		if old&^tagDirty == want {
			toFront(tags, i, old|t)
			return Victim{}
		}
		if old == 0 {
			vi = i
			break
		}
	}
	var out Victim
	if old := tags[vi]; old != 0 {
		out = Victim{
			Addr:  old >> tagShift << memreq.LineShift,
			Dirty: old&tagDirty != 0,
			Valid: true,
		}
		if out.Dirty {
			c.stats.DirtyEvict++
		} else {
			c.stats.CleanEvict++
		}
	}
	toFront(tags, vi, t)
	return out
}

// toFront makes t the set's most recently used way, in place of way i:
// ways 0..i-1 each move one place back.
func toFront(tags []uint64, i int, t uint64) {
	copy(tags[1:i+1], tags[:i])
	tags[0] = t
}

// Touch reads addr's set without mutating anything, one word per 64 bytes
// of way metadata. Callers about to Fill a batch of scattered addresses use
// it to start the host-memory misses for every set in the batch before the
// (order-sensitive) fills run, overlapping latencies that would otherwise
// serialize. The returned sum must be kept live by the caller so the loads
// are not optimized away.
func (c *Cache) Touch(addr uint64) uint64 {
	base := c.setBase(addr >> memreq.LineShift)
	tags := c.tags[base : base+c.cfg.Assoc]
	var x uint64
	for i := 0; i < len(tags); i += 8 {
		x += tags[i]
	}
	return x
}
