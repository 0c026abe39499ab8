package memhier

import (
	"fmt"

	"assasin/internal/sim"
)

// NextLevel is the memory level a cache misses to: another cache or DRAM.
// client tags the requester's traffic down to the DRAM.
type NextLevel interface {
	// FetchLine reads size bytes at addr and returns the completion time.
	FetchLine(at sim.Time, addr uint32, size int, client *DRAMClient) sim.Time
	// WritebackLine writes size bytes at addr. Writebacks are posted (the
	// issuing cache does not wait), so no completion time is returned; the
	// traffic still occupies the level.
	WritebackLine(at sim.Time, addr uint32, size int, client *DRAMClient)
}

// DRAMLevel adapts DRAM to the NextLevel interface.
type DRAMLevel struct{ DRAM *DRAM }

// FetchLine implements NextLevel.
func (d DRAMLevel) FetchLine(at sim.Time, addr uint32, size int, client *DRAMClient) sim.Time {
	return d.DRAM.Access(at, size, false, client)
}

// WritebackLine implements NextLevel.
func (d DRAMLevel) WritebackLine(at sim.Time, addr uint32, size int, client *DRAMClient) {
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

// lineState is a line's timing and replacement state. Its tag and valid
// bit live apart, in Cache.tags, so that a set probe touches only tags.
type lineState struct {
	readyAt sim.Time // when an in-flight fill completes
	lastUse uint64
}

// Line flag bits in lineChunk.flags.
const (
	lineDirty uint8 = 1 << iota
	linePrefetched
)

// chunkBits sets how many consecutive lines share one lineChunk.
const (
	chunkBits = 6
	chunkMask = 1<<chunkBits - 1
)

// lineChunk is the state and flags of 1<<chunkBits consecutive lines. A
// cache builds a chunk on the first install into a set it covers, so an
// offload that touches a few sets of a large cache zeroes only their
// chunks. A chunk's lines read as never used until installed.
type lineChunk struct {
	state [1 << chunkBits]lineState
	flags [1 << chunkBits]uint8 // lineDirty | linePrefetched
}

// Cache is a set-associative, write-back, write-allocate cache timing model.
// It tracks tags only; functional data lives in the backing SparseMem or
// stream windows.
type Cache struct {
	cfg  CacheConfig
	next NextLevel
	// Way w of set s is line s*ways+w. tags holds the line address with
	// bit 0 set when the line is valid (0 when it is not), so probing a set
	// compares one word per way. Line i's state and flags are entry
	// i&chunkMask of chunks[i>>chunkBits], which is nil until replace
	// first installs into a set that chunk covers; a valid line's chunk
	// always exists.
	tags     []uint32
	chunks   []*lineChunk
	ways     int
	setMask  uint32
	lineBits uint
	// hit is the line the last demand access touched; lookup tries it
	// before scanning the set. Tags are unique, so a match is exact.
	hit     int
	useTick uint64
	// fills counts line installs (demand misses and issued prefetches).
	// Lines leave only when an install replaces them, so while fills is
	// unchanged every resident line stays resident.
	fills uint64
	stats CacheStats
	// prefetcher, if set, observes demand accesses and issues fills.
	prefetcher *Prefetcher
}

// NewCache returns a cache with the given geometry, missing to next. The
// line size must be a power of two of at least 2 bytes.
func NewCache(cfg CacheConfig, next NextLevel) *Cache {
	if cfg.LineSize <= 0 || cfg.Size <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("memhier: bad cache config %+v", cfg))
	}
	nSets := cfg.Size / cfg.LineSize / cfg.Ways
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("memhier: cache %q: set count %d not a power of two", cfg.Name, nSets))
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineSize {
		lineBits++
	}
	if 1<<lineBits != cfg.LineSize || lineBits == 0 {
		panic(fmt.Sprintf("memhier: cache %q: line size %d not a power of two of at least 2", cfg.Name, cfg.LineSize))
	}
	nLines := nSets * cfg.Ways
	return &Cache{
		cfg: cfg, next: next,
		tags: make([]uint32, nLines), chunks: make([]*lineChunk, (nLines+chunkMask)>>chunkBits),
		ways: cfg.Ways, setMask: uint32(nSets - 1), lineBits: lineBits,
	}
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

func (c *Cache) setBase(lineAddr uint32) int {
	return int((lineAddr>>c.lineBits)&c.setMask) * c.ways
}

// lookup returns the index of lineAddr's line, or -1 when it is absent.
func (c *Cache) lookup(lineAddr uint32) int {
	key := lineAddr | 1
	if c.tags[c.hit] == key {
		return c.hit
	}
	base := c.setBase(lineAddr)
	for i, t := range c.tags[base : base+c.ways] {
		if t == key {
			return base + i
		}
	}
	return -1
}

// line returns line i's state and flags. Its chunk must exist: replace
// builds it before the first install into any set it covers.
func (c *Cache) line(i int) (*lineState, *uint8) {
	m := c.chunks[i>>chunkBits]
	return &m.state[i&chunkMask], &m.flags[i&chunkMask]
}

// replace picks the way lineAddr is installed into and evicts the line
// there, writing it back if dirty. An install into an invalid way builds
// the chunks of the set's lines that do not exist yet. It counts the
// install.
func (c *Cache) replace(at sim.Time, lineAddr uint32, client *DRAMClient) int {
	base := c.setBase(lineAddr)
	v := c.victim(base)
	if t := c.tags[v]; t == 0 {
		for k := base >> chunkBits; k<<chunkBits < base+c.ways; k++ {
			if c.chunks[k] == nil {
				c.chunks[k] = new(lineChunk)
			}
		}
	} else {
		c.stats.Evictions++
		if _, f := c.line(v); *f&lineDirty != 0 {
			c.stats.Writebacks++
			c.next.WritebackLine(at, t&^1, c.cfg.LineSize, client)
		}
	}
	c.fills++
	return v
}

// victim returns the way of the set at base to install into: the first
// invalid way after way 0, else the least recently used, the lowest way
// on a tie. It looks up each chunk the set covers once.
func (c *Cache) victim(base int) int {
	if c.ways == 1 {
		return base
	}
	m := c.chunks[base>>chunkBits]
	if m == nil {
		return base + 1 // nothing was ever installed in the set
	}
	v, lru := base, m.state[base&chunkMask].lastUse
	for i, end := base+1, base+c.ways; i < end; {
		if m = c.chunks[i>>chunkBits]; m == nil {
			return i // the set's chunks are built together, so line i is invalid
		}
		j := i & chunkMask
		st := m.state[j:min(j+end-i, len(m.state))]
		tags := c.tags[i : i+len(st)]
		for w := range st {
			if tags[w] == 0 {
				return i + w
			}
			if u := st[w].lastUse; u < lru {
				v, lru = i+w, u
			}
		}
		i += len(st)
	}
	return v
}

// accessLines services a demand access of size bytes at addr on every line
// it touches and returns the latest completion.
func (c *Cache) accessLines(at sim.Time, addr uint32, size int, write bool, client *DRAMClient) sim.Time {
	done := at
	last := c.lineAddr(addr + uint32(size) - 1)
	for la := c.lineAddr(addr); ; la += uint32(c.cfg.LineSize) {
		done = sim.MaxT(done, c.accessLine(at, la, write, client))
		if la == last {
			return done
		}
	}
}

// Access services a demand access of size bytes at addr issued at time at by
// client, with the program counter pc driving the prefetcher. It returns
// the completion time. Accesses that straddle a line boundary touch both
// lines.
func (c *Cache) Access(at sim.Time, addr uint32, size int, write bool, pc uint32, client *DRAMClient) sim.Time {
	done := c.accessLines(at, addr, size, write, client)
	if c.prefetcher != nil {
		c.prefetcher.Observe(at, pc, addr, client)
	}
	return done
}

func (c *Cache) accessLine(at sim.Time, lineAddr uint32, write bool, client *DRAMClient) sim.Time {
	c.useTick++
	if i := c.lookup(lineAddr); i >= 0 {
		c.hit = i
		c.stats.Hits++
		line, flags := c.line(i)
		line.lastUse = c.useTick
		f := *flags
		if write {
			f |= lineDirty
		}
		done := at + c.cfg.HitLatency
		if line.readyAt > at { // hit under an in-flight (often prefetched) fill
			if f&linePrefetched != 0 {
				c.stats.PrefetchUseful++
			}
			c.stats.DelayedHitTime += line.readyAt - at
			done = line.readyAt + c.cfg.HitLatency
		} else if f&linePrefetched != 0 {
			c.stats.PrefetchUseful++
			f &^= linePrefetched
		}
		*flags = f
		return done
	}

	// Miss: allocate (write-allocate for stores too).
	c.stats.Misses++
	v := c.replace(at, lineAddr, client)
	fillDone := c.next.FetchLine(at+c.cfg.HitLatency, lineAddr, c.cfg.LineSize, client)
	c.stats.MissServiceTime += fillDone - at
	c.tags[v] = lineAddr | 1
	line, flags := c.line(v)
	*line = lineState{readyAt: fillDone, lastUse: c.useTick}
	*flags = 0
	if write {
		*flags = lineDirty
	}
	c.hit = v
	return fillDone
}

// Prefetch installs lineAddr if absent, fetching it from the next level,
// and reports whether a fill was actually issued. The demand path is not
// blocked; a later demand access waits only for the remaining fill time.
func (c *Cache) Prefetch(at sim.Time, lineAddr uint32, client *DRAMClient) bool {
	lineAddr = c.lineAddr(lineAddr)
	if c.lookup(lineAddr) >= 0 {
		return false // already present or in flight
	}
	c.useTick++
	v := c.replace(at, lineAddr, client)
	fillDone := c.next.FetchLine(at, lineAddr, c.cfg.LineSize, client)
	c.stats.PrefetchIssued++
	c.tags[v] = lineAddr | 1
	line, flags := c.line(v)
	*line = lineState{readyAt: fillDone, lastUse: c.useTick}
	*flags = linePrefetched
	return true
}

// FetchLine implements NextLevel so caches can stack (L1 misses to L2).
func (c *Cache) FetchLine(at sim.Time, addr uint32, size int, client *DRAMClient) sim.Time {
	return c.accessLines(at, addr, size, false, client)
}

// WritebackLine implements NextLevel.
func (c *Cache) WritebackLine(at sim.Time, addr uint32, size int, client *DRAMClient) {
	c.accessLines(at, addr, size, true, client)
}
