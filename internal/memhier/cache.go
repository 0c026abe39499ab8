package memhier

import (
	"fmt"

	"assasin/internal/sim"
)

// NextLevel is the memory level a cache misses to: another cache or DRAM.
type NextLevel interface {
	// FetchLine reads size bytes at addr and returns the completion time.
	FetchLine(at sim.Time, addr uint32, size int, client string) sim.Time
	// WritebackLine writes size bytes at addr. Writebacks are posted (the
	// issuing cache does not wait), so no completion time is returned; the
	// traffic still occupies the level.
	WritebackLine(at sim.Time, addr uint32, size int, client string)
}

// DRAMLevel adapts DRAM to the NextLevel interface.
type DRAMLevel struct{ DRAM *DRAM }

// FetchLine implements NextLevel.
func (d DRAMLevel) FetchLine(at sim.Time, addr uint32, size int, client string) sim.Time {
	return d.DRAM.Access(at, size, false, client)
}

// WritebackLine implements NextLevel.
func (d DRAMLevel) WritebackLine(at sim.Time, addr uint32, size int, client string) {
	d.DRAM.Access(at, size, true, client)
}

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Name     string
	Size     int // total bytes
	Ways     int
	LineSize int // bytes
	// HitLatency is added to hit completions. L1 hits overlap the pipeline
	// (0); L2 hits cost a fixed access time.
	HitLatency sim.Time
}

// CacheStats counts cache events.
type CacheStats struct {
	Hits            int64
	Misses          int64
	Evictions       int64
	Writebacks      int64
	PrefetchIssued  int64
	PrefetchUseful  int64 // demand hits on lines still in flight or brought by prefetch
	DelayedHitTime  sim.Time
	MissServiceTime sim.Time
}

type cacheLine struct {
	tag        uint32
	valid      bool
	dirty      bool
	prefetched bool
	readyAt    sim.Time // when an in-flight fill completes
	lastUse    uint64
}

// Cache is a set-associative, write-back, write-allocate cache timing model.
// It tracks tags only; functional data lives in the backing SparseMem or
// stream windows.
type Cache struct {
	cfg      CacheConfig
	next     NextLevel
	sets     [][]cacheLine
	setMask  uint32
	lineBits uint
	useTick  uint64
	stats    CacheStats
	// prefetcher, if set, observes demand accesses and issues fills.
	prefetcher *Prefetcher
}

// NewCache returns a cache with the given geometry, missing to next.
func NewCache(cfg CacheConfig, next NextLevel) *Cache {
	if cfg.LineSize <= 0 || cfg.Size <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("memhier: bad cache config %+v", cfg))
	}
	nLines := cfg.Size / cfg.LineSize
	nSets := nLines / cfg.Ways
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("memhier: cache %q: set count %d not a power of two", cfg.Name, nSets))
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineSize {
		lineBits++
	}
	if 1<<lineBits != cfg.LineSize {
		panic(fmt.Sprintf("memhier: cache %q: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	sets := make([][]cacheLine, nSets)
	lines := make([]cacheLine, nLines)
	for i := range sets {
		sets[i] = lines[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Cache{cfg: cfg, next: next, sets: sets, setMask: uint32(nSets - 1), lineBits: lineBits}
}

// AttachPrefetcher installs a prefetcher that observes this cache's demand
// stream and fills this cache.
func (c *Cache) AttachPrefetcher(p *Prefetcher) {
	c.prefetcher = p
	p.target = c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Next returns the level this cache misses to.
func (c *Cache) Next() NextLevel { return c.next }

// Prefetcher returns the attached prefetcher (nil when none).
func (c *Cache) Prefetcher() *Prefetcher { return c.prefetcher }

// Stats returns a copy of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

func (c *Cache) lineAddr(addr uint32) uint32 { return addr &^ uint32(c.cfg.LineSize-1) }

func (c *Cache) lookup(addr uint32) (*cacheLine, []cacheLine) {
	set := c.sets[(addr>>c.lineBits)&c.setMask]
	tag := addr >> c.lineBits
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i], set
		}
	}
	return nil, set
}

func (c *Cache) victim(set []cacheLine) *cacheLine {
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

// Access services a demand access of size bytes at addr issued at time at by
// client, with the program counter pc driving the prefetcher. It returns
// the completion time. Accesses that straddle a line boundary touch both
// lines.
func (c *Cache) Access(at sim.Time, addr uint32, size int, write bool, pc uint32, client string) sim.Time {
	done := at
	first := c.lineAddr(addr)
	last := c.lineAddr(addr + uint32(size) - 1)
	for la := first; ; la += uint32(c.cfg.LineSize) {
		d := c.accessLine(at, la, write, client)
		done = sim.MaxT(done, d)
		if la == last {
			break
		}
	}
	if c.prefetcher != nil {
		c.prefetcher.Observe(at, pc, addr, client)
	}
	return done
}

func (c *Cache) accessLine(at sim.Time, lineAddr uint32, write bool, client string) sim.Time {
	c.useTick++
	line, set := c.lookup(lineAddr)
	if line != nil {
		c.stats.Hits++
		line.lastUse = c.useTick
		if write {
			line.dirty = true
		}
		done := at + c.cfg.HitLatency
		if line.readyAt > at { // hit under an in-flight (often prefetched) fill
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

	// Miss: allocate (write-allocate for stores too).
	c.stats.Misses++
	v := c.victim(set)
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
			victimAddr := v.tag << c.lineBits
			c.next.WritebackLine(at, victimAddr, c.cfg.LineSize, client)
		}
	}
	fillDone := c.next.FetchLine(at+c.cfg.HitLatency, lineAddr, c.cfg.LineSize, client)
	c.stats.MissServiceTime += fillDone - at
	*v = cacheLine{tag: lineAddr >> c.lineBits, valid: true, dirty: write, readyAt: fillDone, lastUse: c.useTick}
	return fillDone
}

// Prefetch installs lineAddr if absent, fetching it from the next level,
// and reports whether a fill was actually issued. The demand path is not
// blocked; a later demand access waits only for the remaining fill time.
func (c *Cache) Prefetch(at sim.Time, lineAddr uint32, client string) bool {
	lineAddr = c.lineAddr(lineAddr)
	if line, _ := c.lookup(lineAddr); line != nil {
		return false // already present or in flight
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
	*v = cacheLine{tag: lineAddr >> c.lineBits, valid: true, readyAt: fillDone, lastUse: c.useTick, prefetched: true}
	return true
}

// Contains reports whether lineAddr's line is resident (for tests).
func (c *Cache) Contains(addr uint32) bool {
	line, _ := c.lookup(c.lineAddr(addr))
	return line != nil
}

// FetchLine implements NextLevel so caches can stack (L1 misses to L2).
func (c *Cache) FetchLine(at sim.Time, addr uint32, size int, client string) sim.Time {
	done := at
	first := c.lineAddr(addr)
	last := c.lineAddr(addr + uint32(size) - 1)
	for la := first; ; la += uint32(c.cfg.LineSize) {
		d := c.accessLine(at, la, false, client)
		done = sim.MaxT(done, d)
		if la == last {
			break
		}
	}
	return done
}

// WritebackLine implements NextLevel.
func (c *Cache) WritebackLine(at sim.Time, addr uint32, size int, client string) {
	first := c.lineAddr(addr)
	last := c.lineAddr(addr + uint32(size) - 1)
	for la := first; ; la += uint32(c.cfg.LineSize) {
		c.accessLine(at, la, true, client)
		if la == last {
			break
		}
	}
}
