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
	// Degree is how many lines ahead to prefetch once a pattern locks;
	// set it before the first Observe.
	Degree int
	// TableSize bounds the number of tracked PCs (FIFO replacement); set
	// it before the first Observe.
	TableSize int

	target *Cache
	table  []dcptEntry // FIFO ring of tracked PCs, filled in order
	oldest int         // next slot to replace once table is full
	// index finds a pc's table entry: an open-addressed array, sized at
	// the first Observe to a power of two of at least 2*max(TableSize, 2),
	// with linear probing. Removal shifts later cells of the probe run
	// back, so lookups never meet tombstones.
	index     []pcSlot
	indexBits uint
	stats     PrefetchStats
}

// pcSlot is one index cell: a pc and its table position plus one (0 marks
// an empty cell).
type pcSlot struct {
	pc    uint32
	entry int32
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
	// The last sweep that found all Degree lines resident: its base line,
	// its direction (0 when there is none) and the target's fill count at
	// that point. Lines leave the target only when an install replaces
	// them, so while the fill count is unchanged the same sweep would find
	// every line resident again: each Prefetch would return false and
	// change nothing. Observe skips it.
	sweptBase  uint32
	sweptDir   int32
	sweptFills uint64
}

// NewPrefetcher returns a DCPT-style prefetcher with the given degree.
func NewPrefetcher(degree int) *Prefetcher {
	if degree <= 0 {
		degree = 4
	}
	return &Prefetcher{Degree: degree, TableSize: 64}
}

// Stats returns a copy of the counters.
func (p *Prefetcher) Stats() PrefetchStats { return p.stats }

// home is pc's preferred index cell (Fibonacci hashing).
func (p *Prefetcher) home(pc uint32) int {
	return int(pc * 0x9e3779b1 >> (32 - p.indexBits))
}

// probe returns the index cell holding pc, or the empty cell that ends
// pc's probe run when pc is not tracked.
func (p *Prefetcher) probe(pc uint32) int {
	mask := len(p.index) - 1
	h := p.home(pc)
	for p.index[h].entry != 0 && p.index[h].pc != pc {
		h = (h + 1) & mask
	}
	return h
}

// remove deletes tracked pc from the index by backward shift: each later
// cell of the probe run moves into the hole unless its home lies
// (cyclically) between the hole and the cell.
func (p *Prefetcher) remove(pc uint32) {
	mask := len(p.index) - 1
	i := p.probe(pc)
	for j := (i + 1) & mask; p.index[j].entry != 0; j = (j + 1) & mask {
		if (j-p.home(p.index[j].pc))&mask >= (j-i)&mask {
			p.index[i] = p.index[j]
			i = j
		}
	}
	p.index[i] = pcSlot{}
}

// Observe records a demand access by pc at addr and issues prefetches when a
// delta pattern repeats.
func (p *Prefetcher) Observe(at sim.Time, pc, addr uint32, client *DRAMClient) {
	if p.target == nil {
		return
	}
	p.stats.Observations++
	if p.index == nil {
		for 1<<p.indexBits < 2*max(p.TableSize, 2) {
			p.indexBits++
		}
		p.index = make([]pcSlot, 1<<p.indexBits)
	}
	h := p.probe(pc)
	if p.index[h].entry == 0 {
		// A kernel with more load PCs than TableSize (AES's unrolled
		// rounds) replaces entries on most accesses, so the table is a
		// fixed ring of values: replacement allocates nothing. The new pc
		// goes into the index before the replaced one leaves it, which
		// needs two free cells beyond TableSize (hence the size floor).
		if len(p.table) < p.TableSize {
			p.index[h] = pcSlot{pc: pc, entry: int32(len(p.table) + 1)}
			p.table = append(p.table, dcptEntry{pc: pc, lastAddr: addr})
			return
		}
		i := p.oldest
		p.index[h] = pcSlot{pc: pc, entry: int32(i + 1)}
		p.remove(p.table[i].pc)
		p.table[i] = dcptEntry{pc: pc, lastAddr: addr}
		p.oldest = (i + 1) % len(p.table)
		return
	}
	e := &p.table[p.index[h].entry-1]
	delta := int32(addr - e.lastAddr)
	if delta != 0 && delta == e.lastDelta {
		p.stats.PatternHits++
		p.sweep(at, e, delta, addr, client)
	}
	if delta != 0 {
		e.lastDelta = delta
		e.lastAddr = addr
	}
}

// sweep prefetches the Degree lines past addr's line in delta's direction,
// unless e's last sweep, unchanged since, found them all resident.
func (p *Prefetcher) sweep(at sim.Time, e *dcptEntry, delta int32, addr uint32, client *DRAMClient) {
	t := p.target
	dir := int32(1)
	if delta < 0 {
		dir = -1
	}
	base := t.lineAddr(addr)
	if e.sweptDir == dir && e.sweptBase == base && e.sweptFills == t.fills {
		return
	}
	lineSize := int32(t.cfg.LineSize)
	issued := p.stats.Issued
	for i := int32(1); i <= int32(p.Degree); i++ {
		la := base + uint32(dir*lineSize*i)
		if t.Prefetch(at, la, client) {
			p.stats.Issued++
		}
	}
	if p.stats.Issued == issued {
		e.sweptBase, e.sweptDir, e.sweptFills = base, dir, t.fills
	}
}
