package memhier

import "assasin/internal/sim"

// refCache and refPrefetcher are the reference cache and DCPT prefetcher:
// one []refLine slice per set scanned in full on every probe, and a
// map[uint32]int pc table. Cache and Prefetcher must match them on every
// returned time and every counter (TestCacheMatchesOracle).

type refLine struct {
	tag        uint32
	valid      bool
	dirty      bool
	prefetched bool
	readyAt    sim.Time
	lastUse    uint64
}

type refCache struct {
	cfg        CacheConfig
	next       NextLevel
	sets       [][]refLine
	setMask    uint32
	lineBits   uint
	useTick    uint64
	stats      CacheStats
	prefetcher *refPrefetcher
}

func newRefCache(cfg CacheConfig, next NextLevel) *refCache {
	nLines := cfg.Size / cfg.LineSize
	nSets := nLines / cfg.Ways
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineSize {
		lineBits++
	}
	sets := make([][]refLine, nSets)
	lines := make([]refLine, nLines)
	for i := range sets {
		sets[i] = lines[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &refCache{cfg: cfg, next: next, sets: sets, setMask: uint32(nSets - 1), lineBits: lineBits}
}

func (c *refCache) attach(p *refPrefetcher) {
	c.prefetcher = p
	p.target = c
}

func (c *refCache) lineAddr(addr uint32) uint32 { return addr &^ uint32(c.cfg.LineSize-1) }

func (c *refCache) lookup(addr uint32) (*refLine, []refLine) {
	set := c.sets[(addr>>c.lineBits)&c.setMask]
	tag := addr >> c.lineBits
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i], set
		}
	}
	return nil, set
}

func (c *refCache) victim(set []refLine) *refLine {
	v := &set[0]
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			return &set[i]
		}
		if set[i].lastUse < v.lastUse {
			v = &set[i]
		}
	}
	return v
}

func (c *refCache) Access(at sim.Time, addr uint32, size int, write bool, pc uint32, client *DRAMClient) sim.Time {
	done := at
	first := c.lineAddr(addr)
	last := c.lineAddr(addr + uint32(size) - 1)
	for la := first; ; la += uint32(c.cfg.LineSize) {
		done = sim.MaxT(done, c.accessLine(at, la, write, client))
		if la == last {
			break
		}
	}
	if c.prefetcher != nil {
		c.prefetcher.Observe(at, pc, addr, client)
	}
	return done
}

func (c *refCache) accessLine(at sim.Time, lineAddr uint32, write bool, client *DRAMClient) sim.Time {
	c.useTick++
	line, set := c.lookup(lineAddr)
	if line != nil {
		c.stats.Hits++
		line.lastUse = c.useTick
		if write {
			line.dirty = true
		}
		done := at + c.cfg.HitLatency
		if line.readyAt > at {
			if line.prefetched {
				c.stats.PrefetchUseful++
			}
			c.stats.DelayedHitTime += line.readyAt - at
			done = line.readyAt + c.cfg.HitLatency
		} else if line.prefetched {
			c.stats.PrefetchUseful++
			line.prefetched = false
		}
		return done
	}
	c.stats.Misses++
	v := c.victim(set)
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
			c.next.WritebackLine(at, v.tag<<c.lineBits, c.cfg.LineSize, client)
		}
	}
	fillDone := c.next.FetchLine(at+c.cfg.HitLatency, lineAddr, c.cfg.LineSize, client)
	c.stats.MissServiceTime += fillDone - at
	*v = refLine{tag: lineAddr >> c.lineBits, valid: true, dirty: write, readyAt: fillDone, lastUse: c.useTick}
	return fillDone
}

func (c *refCache) Prefetch(at sim.Time, lineAddr uint32, client *DRAMClient) bool {
	lineAddr = c.lineAddr(lineAddr)
	if line, _ := c.lookup(lineAddr); line != nil {
		return false
	}
	c.useTick++
	set := c.sets[(lineAddr>>c.lineBits)&c.setMask]
	v := c.victim(set)
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
			c.next.WritebackLine(at, v.tag<<c.lineBits, c.cfg.LineSize, client)
		}
	}
	fillDone := c.next.FetchLine(at, lineAddr, c.cfg.LineSize, client)
	c.stats.PrefetchIssued++
	*v = refLine{tag: lineAddr >> c.lineBits, valid: true, readyAt: fillDone, lastUse: c.useTick, prefetched: true}
	return true
}

func (c *refCache) contains(addr uint32) bool {
	line, _ := c.lookup(c.lineAddr(addr))
	return line != nil
}

func (c *refCache) FetchLine(at sim.Time, addr uint32, size int, client *DRAMClient) sim.Time {
	done := at
	first := c.lineAddr(addr)
	last := c.lineAddr(addr + uint32(size) - 1)
	for la := first; ; la += uint32(c.cfg.LineSize) {
		done = sim.MaxT(done, c.accessLine(at, la, false, client))
		if la == last {
			break
		}
	}
	return done
}

func (c *refCache) WritebackLine(at sim.Time, addr uint32, size int, client *DRAMClient) {
	first := c.lineAddr(addr)
	last := c.lineAddr(addr + uint32(size) - 1)
	for la := first; ; la += uint32(c.cfg.LineSize) {
		c.accessLine(at, la, true, client)
		if la == last {
			break
		}
	}
}

type refPrefetcher struct {
	degree    int
	tableSize int
	target    *refCache
	slot      map[uint32]int
	table     []refEntry
	oldest    int
	stats     PrefetchStats
}

type refEntry struct {
	pc        uint32
	lastAddr  uint32
	lastDelta int32
}

func newRefPrefetcher(degree, tableSize int) *refPrefetcher {
	return &refPrefetcher{degree: degree, tableSize: tableSize, slot: make(map[uint32]int)}
}

func (p *refPrefetcher) Observe(at sim.Time, pc, addr uint32, client *DRAMClient) {
	p.stats.Observations++
	i, ok := p.slot[pc]
	if !ok {
		if len(p.table) < p.tableSize {
			i = len(p.table)
			p.table = append(p.table, refEntry{})
		} else {
			i = p.oldest
			delete(p.slot, p.table[i].pc)
			p.oldest = (i + 1) % len(p.table)
		}
		p.table[i] = refEntry{pc: pc, lastAddr: addr}
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
		for i := int32(1); i <= int32(p.degree); i++ {
			if p.target.Prefetch(at, base+uint32(dir*lineSize*i), client) {
				p.stats.Issued++
			}
		}
	}
	if delta != 0 {
		e.lastDelta = delta
		e.lastAddr = addr
	}
}

// hierarchy is one L1 (optionally over an L2) on its own DRAM, built
// either from Cache/Prefetcher or from the reference.
type hierarchy struct {
	dram   *DRAM
	client *DRAMClient
	l1, l2 interface {
		contains(addr uint32) bool
	}
	access func(at sim.Time, addr uint32, size int, write bool, pc uint32) sim.Time
	stats  func() (l1, l2 CacheStats, pf PrefetchStats)
}

type hierConfig struct {
	l1, l2    CacheConfig // l2.Size 0: L1 misses straight to DRAM
	degree    int         // 0: no prefetcher
	tableSize int
}

func newHierarchy(hc hierConfig) *hierarchy {
	h := &hierarchy{dram: testDRAM()}
	h.client = &DRAMClient{Name: "core0"}
	var next NextLevel = DRAMLevel{h.dram}
	var l2 *Cache
	if hc.l2.Size > 0 {
		l2 = NewCache(hc.l2, next)
		next, h.l2 = l2, l2
	}
	l1 := NewCache(hc.l1, next)
	h.l1 = l1
	var pf *Prefetcher
	if hc.degree > 0 {
		pf = NewPrefetcher(hc.degree)
		pf.TableSize = hc.tableSize
		l1.AttachPrefetcher(pf)
	}
	h.access = func(at sim.Time, addr uint32, size int, write bool, pc uint32) sim.Time {
		return l1.Access(at, addr, size, write, pc, h.client)
	}
	h.stats = func() (s1, s2 CacheStats, ps PrefetchStats) {
		s1 = l1.Stats()
		if l2 != nil {
			s2 = l2.Stats()
		}
		if pf != nil {
			ps = pf.Stats()
		}
		return
	}
	return h
}

func newRefHierarchy(hc hierConfig) *hierarchy {
	h := &hierarchy{dram: testDRAM()}
	h.client = &DRAMClient{Name: "core0"}
	var next NextLevel = DRAMLevel{h.dram}
	var l2 *refCache
	if hc.l2.Size > 0 {
		l2 = newRefCache(hc.l2, next)
		next, h.l2 = l2, l2
	}
	l1 := newRefCache(hc.l1, next)
	h.l1 = l1
	var pf *refPrefetcher
	if hc.degree > 0 {
		pf = newRefPrefetcher(hc.degree, hc.tableSize)
		l1.attach(pf)
	}
	h.access = func(at sim.Time, addr uint32, size int, write bool, pc uint32) sim.Time {
		return l1.Access(at, addr, size, write, pc, h.client)
	}
	h.stats = func() (s1, s2 CacheStats, ps PrefetchStats) {
		s1 = l1.stats
		if l2 != nil {
			s2 = l2.stats
		}
		if pf != nil {
			ps = pf.stats
		}
		return
	}
	return h
}
