package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"coaxial/internal/memreq"
)

func small() *Cache {
	return New(Config{SizeBytes: 4 * 64 * 2, Assoc: 2, LatencyCycles: 4}) // 4 sets x 2 ways
}

func TestNewValidation(t *testing.T) {
	defertest := func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			New(cfg)
		})
	}
	defertest("zero-assoc", Config{SizeBytes: 1024, Assoc: 0})
	defertest("non-divisible", Config{SizeBytes: 100, Assoc: 1})
	defertest("non-pow2-sets", Config{SizeBytes: 3 * 64, Assoc: 1})
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.Lookup(0x1000, false) {
		t.Error("cold lookup must miss")
	}
	c.Fill(0x1000, false)
	if !c.Lookup(0x1000, false) {
		t.Error("filled line must hit")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 64, Assoc: 2, LatencyCycles: 1}) // 1 set, 2 ways
	c.Fill(0*64, false)
	c.Fill(1*64, false)
	c.Lookup(0*64, false) // touch 0: 1 is now LRU
	v := c.Fill(2*64, false)
	if !v.Valid || v.Addr != 1*64 {
		t.Errorf("expected eviction of line 1, got %+v", v)
	}
	if !c.Probe(0 * 64) {
		t.Error("MRU line evicted")
	}
}

func TestDirtyTracking(t *testing.T) {
	c := New(Config{SizeBytes: 1 * 64, Assoc: 1, LatencyCycles: 1})
	c.Fill(0, false)
	c.Lookup(0, true) // store hit marks dirty
	v := c.Fill(64, false)
	if !v.Valid || !v.Dirty || v.Addr != 0 {
		t.Errorf("dirty eviction expected, got %+v", v)
	}
	v2 := c.Fill(128, false)
	if v2.Dirty {
		t.Error("clean line evicted dirty")
	}
	st := c.Stats()
	if st.DirtyEvict != 1 || st.CleanEvict != 1 {
		t.Errorf("evict stats: %+v", st)
	}
}

func TestFillDirtyFlag(t *testing.T) {
	c := New(Config{SizeBytes: 1 * 64, Assoc: 1, LatencyCycles: 1})
	c.Fill(0, true) // RFO-style dirty install
	if v := c.Fill(64, false); !v.Dirty {
		t.Error("dirty install lost")
	}
}

func TestRefillRefreshesAndMerges(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 64, Assoc: 2, LatencyCycles: 1})
	c.Fill(0, false)
	c.Fill(64, false)
	// Re-fill line 0 with dirty: no victim, dirty bit set, LRU refresh.
	if v := c.Fill(0, true); v.Valid {
		t.Errorf("refill produced victim %+v", v)
	}
	v := c.Fill(128, false) // should evict 64 (LRU), not 0
	if v.Addr != 64 {
		t.Errorf("evicted %#x, want 64", v.Addr)
	}
	v2 := c.Fill(192, false) // now 0 goes, dirty
	if v2.Addr != 0 || !v2.Dirty {
		t.Errorf("expected dirty 0, got %+v", v2)
	}
}

func TestProbeNoSideEffects(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 64, Assoc: 2, LatencyCycles: 1})
	c.Fill(0, false)
	c.Fill(64, false)
	before := c.Stats()
	c.Probe(0) // must not touch LRU or stats
	if c.Stats() != before {
		t.Error("probe mutated stats")
	}
	// 0 must still be LRU (fill order): eviction takes 0.
	if v := c.Fill(128, false); v.Addr != 0 {
		t.Errorf("probe changed LRU: evicted %#x", v.Addr)
	}
}

// lineCounts reports c's dirty and valid line counts, and whether every
// set's valid ways form a prefix of the set.
func lineCounts(c *Cache) (dirty, valid int, prefix bool) {
	prefix = true
	for i, t := range c.tags {
		if t&tagValid == 0 {
			continue
		}
		valid++
		if t&tagDirty != 0 {
			dirty++
		}
		if i%c.cfg.Assoc != 0 && c.tags[i-1] == 0 {
			prefix = false
		}
	}
	return dirty, valid, prefix
}

// TestCapacityProperty: after any access sequence the cache never holds
// more valid lines than its capacity, each set at most Assoc, and each
// set's valid ways form a prefix.
func TestCapacityProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{SizeBytes: 8 * 64 * 4, Assoc: 4, LatencyCycles: 1})
		for _, op := range ops {
			addr := uint64(op) * 64
			if !c.Lookup(addr, op%3 == 0) {
				c.Fill(addr, op%5 == 0)
			}
		}
		dirty, valid, prefix := lineCounts(c)
		return valid <= 8*4 && dirty <= valid && prefix
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestInclusionOfRecentLines: with fewer distinct lines than capacity,
// everything filled remains resident.
func TestInclusionOfRecentLines(t *testing.T) {
	c := New(Config{SizeBytes: 64 * 64 * 8, Assoc: 8, LatencyCycles: 1})
	rng := rand.New(rand.NewSource(5))
	lines := make([]uint64, 100) // 100 distinct lines << 512 capacity
	for i := range lines {
		lines[i] = uint64(rng.Intn(1<<20)) * 64
	}
	for _, l := range lines {
		if !c.Lookup(l, false) {
			c.Fill(l, false)
		}
	}
	for _, l := range lines {
		if !c.Probe(l) {
			t.Fatalf("line %#x evicted below capacity", l)
		}
	}
}

func TestLLCSliceMapping(t *testing.T) {
	l := NewLLC(12, 1<<20, 16, 20)
	if l.Slices() != 12 || l.Latency() != 20 {
		t.Fatalf("geometry: %d slices lat %d", l.Slices(), l.Latency())
	}
	// Stable mapping.
	for i := 0; i < 100; i++ {
		a := uint64(i) * 977 * 64
		if l.SliceOf(a) != l.SliceOf(a) {
			t.Fatal("slice mapping unstable")
		}
	}
	// Spread: sequential lines cover most slices.
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[l.SliceOf(uint64(i)*64)] = true
	}
	if len(seen) < 10 {
		t.Errorf("sequential lines cover only %d/12 slices", len(seen))
	}
}

func TestLLCLookupFillStats(t *testing.T) {
	l := NewLLC(4, 64*64*4, 4, 20)
	if l.Lookup(0x5000, false) {
		t.Error("cold LLC lookup hit")
	}
	l.Fill(0x5000, false)
	if !l.Lookup(0x5000, false) {
		t.Error("LLC fill lost")
	}
	if !l.Probe(0x5000) {
		t.Error("LLC probe lost")
	}
	st := l.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Fills != 1 {
		t.Errorf("LLC stats: %+v", st)
	}
	l.ResetStats()
	if l.Stats().Accesses != 0 {
		t.Error("LLC stats reset")
	}
}

func TestLLCSingleSlice(t *testing.T) {
	l := NewLLC(1, 64*64, 4, 20)
	if l.SliceOf(0xABCDEF00) != 0 {
		t.Error("single-slice mapping")
	}
}

// TestSetIsolation: filling one set never evicts lines from another.
func TestSetIsolation(t *testing.T) {
	c := New(Config{SizeBytes: 16 * 64 * 2, Assoc: 2, LatencyCycles: 1})
	anchor := uint64(0)
	c.Fill(anchor, false)
	set0 := c.index(anchor >> memreq.LineShift)
	// Hammer a different set.
	hammered := 0
	for i := uint64(1); hammered < 64; i++ {
		a := i * 64
		if c.index(a>>memreq.LineShift) != set0 {
			c.Fill(a, false)
			hammered++
		}
	}
	if !c.Probe(anchor) {
		t.Error("cross-set eviction")
	}
}

// refCache is the stamp-array LRU cache that Cache's recency-ordered sets
// replaced, kept verbatim as the reference they must match: every valid
// way carries the clock value of its last touch, and a full set evicts the
// first way with the minimal stamp.
type refCache struct {
	cfg    Config
	mask   uint64
	tags   []uint64 // sets*assoc, set-major: tag<<2 | dirty<<1 | valid
	stamps []uint32 // sets*assoc, set-major: LRU clock at last touch
	clock  uint32
	stats  Stats
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.SizeBytes / (cfg.Assoc * memreq.LineSize)
	return &refCache{
		cfg:    cfg,
		mask:   uint64(sets - 1),
		tags:   make([]uint64, sets*cfg.Assoc),
		stamps: make([]uint32, sets*cfg.Assoc),
	}
}

func (c *refCache) clone() *refCache {
	d := *c
	d.tags = append([]uint64(nil), c.tags...)
	d.stamps = append([]uint32(nil), c.stamps...)
	return &d
}

func (c *refCache) setBase(lineAddr uint64) int {
	h := lineAddr ^ (lineAddr >> 17) ^ (lineAddr >> 31)
	return int(h&c.mask) * c.cfg.Assoc
}

func (c *refCache) Lookup(addr uint64, markDirty bool) bool {
	la := addr >> memreq.LineShift
	base := c.setBase(la)
	tags := c.tags[base : base+c.cfg.Assoc]
	want := la<<tagShift | tagValid
	c.stats.Accesses++
	for i := range tags {
		if tags[i]&^tagDirty == want {
			c.clock++
			c.stamps[base+i] = c.clock
			if markDirty {
				tags[i] |= tagDirty
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *refCache) Probe(addr uint64) bool {
	la := addr >> memreq.LineShift
	base := c.setBase(la)
	tags := c.tags[base : base+c.cfg.Assoc]
	want := la<<tagShift | tagValid
	for i := range tags {
		if tags[i]&^tagDirty == want {
			return true
		}
	}
	return false
}

func (c *refCache) Fill(addr uint64, dirty bool) Victim {
	la := addr >> memreq.LineShift
	base := c.setBase(la)
	tags := c.tags[base : base+c.cfg.Assoc]
	want := la<<tagShift | tagValid
	c.stats.Fills++

	inv := -1
	for i := range tags {
		t := tags[i]
		if t&^tagDirty == want {
			c.clock++
			c.stamps[base+i] = c.clock
			if dirty {
				tags[i] |= tagDirty
			}
			return Victim{}
		}
		if t&tagValid == 0 && inv < 0 {
			inv = i
		}
	}
	var out Victim
	vi := inv
	if vi < 0 {
		stamps := c.stamps[base : base+c.cfg.Assoc]
		vi = 0
		oldest := stamps[0]
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < oldest {
				oldest = stamps[i]
				vi = i
			}
		}
		out = Victim{
			Addr:  tags[vi] >> tagShift << memreq.LineShift,
			Dirty: tags[vi]&tagDirty != 0,
			Valid: true,
		}
		if out.Dirty {
			c.stats.DirtyEvict++
		} else {
			c.stats.CleanEvict++
		}
	}
	c.clock++
	t := want
	if dirty {
		t |= tagDirty
	}
	tags[vi] = t
	c.stamps[base+vi] = c.clock
	return out
}

// Differential ops, one per 3 bytes: a kind byte (mod opKinds) and a
// little-endian line index into a pool of about 3x the cache's capacity.
const (
	opLookup = iota
	opStore
	opFill
	opFillDirty
	opProbe
	opClone
	opKinds
)

var (
	refAssocs = []int{1, 2, 4, 8, 16}
	refSets   = []int{1, 4, 64}
)

// checkAgainstReference runs ops on a Cache and a refCache of the given
// geometry and fails on the first op whose result or counters differ. An
// opClone continues on clones of both, after scribbling on the original
// Cache so a clone that shares state with it shows up as a mismatch.
func checkAgainstReference(t *testing.T, assoc, sets int, ops []byte) {
	t.Helper()
	cfg := Config{SizeBytes: sets * assoc * memreq.LineSize, Assoc: assoc}
	c, ref := New(cfg), newRefCache(cfg)
	pool := make([]uint64, 3*sets*assoc)
	for i := range pool {
		// Three address spaces, as distinct cores' generators use.
		pool[i] = uint64(i%3+1)<<40 + uint64(i)*memreq.LineSize
	}
	for n := 0; n+3 <= len(ops); n += 3 {
		kind := ops[n] % opKinds
		addr := pool[(int(ops[n+1])|int(ops[n+2])<<8)%len(pool)]
		var got, want any
		switch kind {
		case opLookup, opStore:
			got, want = c.Lookup(addr, kind == opStore), ref.Lookup(addr, kind == opStore)
		case opFill, opFillDirty:
			got, want = c.Fill(addr, kind == opFillDirty), ref.Fill(addr, kind == opFillDirty)
		case opProbe:
			got, want = c.Probe(addr), ref.Probe(addr)
		case opClone:
			orig := c
			c, ref = c.Clone(), ref.clone()
			for _, a := range pool[:len(pool)/2] {
				orig.Fill(a^1<<50, true)
			}
		}
		if got != want {
			t.Fatalf("op %d (kind %d, addr %#x): got %+v, reference %+v", n/3, kind, addr, got, want)
		}
		if c.Stats() != ref.stats {
			t.Fatalf("op %d (kind %d, addr %#x): stats %+v, reference %+v", n/3, kind, addr, c.Stats(), ref.stats)
		}
	}
}

// TestCacheMatchesReference drives every geometry through one seeded
// random sequence of lookups, stores, clean and dirty fills and probes,
// cloning both caches halfway.
func TestCacheMatchesReference(t *testing.T) {
	const nops = 20_000
	for _, assoc := range refAssocs {
		for _, sets := range refSets {
			t.Run(fmt.Sprintf("assoc%d/sets%d", assoc, sets), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(assoc*100 + sets)))
				ops := make([]byte, 3*nops)
				rng.Read(ops)
				for n := 0; n < len(ops); n += 3 {
					ops[n] %= opClone // clones only where placed below
				}
				ops[3*(nops/2)] = opClone
				checkAgainstReference(t, assoc, sets, ops)
			})
		}
	}
}

// FuzzCacheMatchesReference is TestCacheMatchesReference over fuzzed op
// sequences; the first byte picks the geometry.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, opFill, 0, 0, opLookup, 0, 0})
	f.Add([]byte{14, opFillDirty, 1, 0, opFill, 2, 0, opStore, 1, 0, opClone, 0, 0, opFill, 3, 0, opProbe, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := int(data[0]) % (len(refAssocs) * len(refSets))
		checkAgainstReference(t, refAssocs[g/len(refSets)], refSets[g%len(refSets)], data[1:])
	})
}
