package calm

import (
	"coaxial/internal/clock"
	"coaxial/internal/memreq"
)

// regulated implements CALM_R (§IV-C). Each L2 controller estimates its
// memory bandwidth demand with and without the LLC acting as a filter
// (bw_filtered from L2 misses that also miss the LLC, bw_unfiltered from
// all L2 misses). If the filtered demand already exceeds R, CALM is not
// performed; otherwise the L2 miss performs CALM with probability
// min(1, (R - bw_filtered)/bw_unfiltered). We aggregate the estimate
// globally, which is what the per-L2 estimates converge to for the
// rate-mode workloads the paper evaluates.
type regulated struct {
	d Decisions

	r            float64
	epoch        int64   //lint:unit cycles
	peakBytesCyc float64 //lint:unit bytes/cycle

	epochStart int64  //lint:unit cycles
	l2Misses   uint64 // this epoch
	llcMisses  uint64 // this epoch

	// Estimates from the last completed epoch, as utilization fractions.
	utilFiltered   float64
	utilUnfiltered float64

	rng uint64
}

func newRegulated(r float64, epoch int64, peakGBs float64) *regulated {
	return &regulated{
		r:            r,
		epoch:        epoch,
		peakBytesCyc: clock.BytesPerCycle(peakGBs),
		rng:          0x1234_5678_9ABC_DEF1,
	}
}

func (g *regulated) rand01() float64 {
	g.rng ^= g.rng >> 12
	g.rng ^= g.rng << 25
	g.rng ^= g.rng >> 27
	return float64((g.rng*0x2545F4914F6CDD1D)>>11) / (1 << 53)
}

func (g *regulated) rollEpoch(now int64) {
	span := now - g.epochStart
	if span < g.epoch {
		return
	}
	bytesFiltered := float64(g.llcMisses * memreq.LineSize)
	bytesUnfiltered := float64(g.l2Misses * memreq.LineSize)
	denom := float64(span) * g.peakBytesCyc
	if denom > 0 {
		g.utilFiltered = bytesFiltered / denom
		g.utilUnfiltered = bytesUnfiltered / denom
	}
	g.epochStart = now
	g.l2Misses = 0
	g.llcMisses = 0
}

func (g *regulated) Decide(_ int, _ uint64, now int64, _ func() bool) bool {
	g.rollEpoch(now)
	if g.utilFiltered >= g.r {
		return false
	}
	if g.utilUnfiltered <= 0 {
		// No demand estimate yet (first epoch): CALM freely; the system
		// is unloaded.
		return true
	}
	p := (g.r - g.utilFiltered) / g.utilUnfiltered
	if p >= 1 {
		return true
	}
	return g.rand01() < p
}

func (g *regulated) Observe(_ int, _ uint64, llcHit, didCALM bool) {
	g.l2Misses++
	if !llcHit {
		g.llcMisses++
	}
	tally(&g.d, llcHit, didCALM)
}

func (g *regulated) Decisions() Decisions { return g.d }
func (g *regulated) Reset()               { g.d = Decisions{} }

// mapi is the MAP-I predictor: per-core tables of 3-bit saturating
// counters indexed by a PC hash; counter >= 4 predicts an LLC miss (CALM).
type mapi struct {
	d      Decisions
	tables [][]uint8
}

const mapiEntries = 1024

func newMAPI(cores int) *mapi {
	m := &mapi{tables: make([][]uint8, cores)}
	for i := range m.tables {
		t := make([]uint8, mapiEntries)
		for j := range t {
			t[j] = 4 // weakly predict miss: memory-intensive phases ramp fast
		}
		m.tables[i] = t
	}
	return m
}

func (m *mapi) slot(core int, pc uint64) *uint8 {
	if core < 0 || core >= len(m.tables) {
		core = 0
	}
	h := pc ^ (pc >> 10) ^ (pc >> 20)
	return &m.tables[core][h%mapiEntries]
}

func (m *mapi) Decide(core int, pc uint64, _ int64, _ func() bool) bool {
	return *m.slot(core, pc) >= 4
}

func (m *mapi) Observe(core int, pc uint64, llcHit, didCALM bool) {
	s := m.slot(core, pc)
	if llcHit {
		if *s > 0 {
			*s--
		}
	} else if *s < 7 {
		*s++
	}
	tally(&m.d, llcHit, didCALM)
}

func (m *mapi) Decisions() Decisions { return m.d }
func (m *mapi) Reset()               { m.d = Decisions{} }
