package memhier

import "assasin/internal/sim"

// Prefetcher is a delta-correlating prediction table (DCPT) style
// prefetcher, standing in for the best-performing Gem5 prefetcher in the
// paper's Prefetch configuration. Each load PC gets a table entry tracking
// its last address and delta; when the same delta repeats the prefetcher
// issues fills for the next Degree cache lines along that direction.
//
// For the streaming access patterns of computational-storage kernels this
// captures DCPT's essential behaviour: near-perfect latency hiding of
// sequential flash-page walks, with no reduction in DRAM bandwidth demand —
// which is exactly why the paper finds Prefetch helps latency but cannot
// break the memory wall.
type Prefetcher struct {
	// Degree is how many lines ahead to prefetch once a pattern locks.
	Degree int
	// TableSize bounds the number of tracked PCs (FIFO replacement); set
	// it before the first Observe.
	TableSize int

	target *Cache
	slot   map[uint32]int // pc -> index in table
	table  []dcptEntry    // FIFO ring of tracked PCs, filled in order
	oldest int            // next slot to replace once table is full
	stats  PrefetchStats
}

// PrefetchStats counts predictor behaviour.
type PrefetchStats struct {
	Observations int64
	PatternHits  int64
	Issued       int64
}

type dcptEntry struct {
	pc        uint32
	lastAddr  uint32
	lastDelta int32
}

// NewPrefetcher returns a DCPT-style prefetcher with the given degree.
func NewPrefetcher(degree int) *Prefetcher {
	if degree <= 0 {
		degree = 4
	}
	return &Prefetcher{Degree: degree, TableSize: 64, slot: make(map[uint32]int)}
}

// Stats returns a copy of the counters.
func (p *Prefetcher) Stats() PrefetchStats { return p.stats }

// Observe records a demand access by pc at addr and issues prefetches when a
// delta pattern repeats.
func (p *Prefetcher) Observe(at sim.Time, pc, addr uint32, client string) {
	if p.target == nil {
		return
	}
	p.stats.Observations++
	i, ok := p.slot[pc]
	if !ok {
		// A kernel with more load PCs than TableSize (AES's unrolled
		// rounds) replaces entries on most accesses, so the table is a
		// fixed ring of values: replacement allocates nothing.
		if len(p.table) < p.TableSize {
			i = len(p.table)
			p.table = append(p.table, dcptEntry{})
		} else {
			i = p.oldest
			delete(p.slot, p.table[i].pc)
			p.oldest = (i + 1) % len(p.table)
		}
		p.table[i] = dcptEntry{pc: pc, lastAddr: addr}
		p.slot[pc] = i
		return
	}
	e := &p.table[i]
	delta := int32(addr - e.lastAddr)
	if delta != 0 && delta == e.lastDelta {
		p.stats.PatternHits++
		lineSize := int32(p.target.cfg.LineSize)
		dir := int32(1)
		if delta < 0 {
			dir = -1
		}
		base := p.target.lineAddr(addr)
		for i := int32(1); i <= int32(p.Degree); i++ {
			la := base + uint32(dir*lineSize*i)
			if p.target.Prefetch(at, la, client) {
				p.stats.Issued++
			}
		}
	}
	if delta != 0 {
		e.lastDelta = delta
		e.lastAddr = addr
	}
}
