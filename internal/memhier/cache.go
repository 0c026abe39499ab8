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

// chunkBits sets how many lines share one lineChunk.
const (
	chunkBits = 6
	chunkMask = 1<<chunkBits - 1
)

// lineChunk is the state and flags of 1<<chunkBits lines: one way of
// 1<<chunkBits consecutive sets (or, in a cache of fewer sets, several
// whole ways). A cache builds a chunk on the first install into a line it
// covers. The victim rule fills way 1 of every set before way 2, so a
// sequential walk builds one chunk per 1<<chunkBits sets, and an offload
// that touches a few sets of a large cache zeroes only their chunks.
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
	// Way w of set s has tag s*ways+w: tags holds the line address with
	// bit 0 set when the line is valid (0 when it is not), so probing a set
	// compares one word per way. Its state index is w*sets+s, way-major:
	// the state and flags are entry si&chunkMask of chunks[si>>chunkBits],
	// which is nil until replace first installs into a line that chunk
	// covers; a valid line's chunk always exists.
	tags     []uint32
	chunks   []*lineChunk
	ways     int
	setMask  int
	lineBits uint
	// hitTag and hit are the tag and state indices of the line the last
	// demand access touched; lookup tries it before scanning the set. Tags
	// are unique, so a match is exact.
	hitTag  int
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
		ways: cfg.Ways, setMask: nSets - 1, lineBits: lineBits,
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

func (c *Cache) set(lineAddr uint32) int {
	return int(lineAddr>>c.lineBits) & c.setMask
}

// lookup returns the tag and state indices of lineAddr's line, or -1 and
// -1 when it is absent.
func (c *Cache) lookup(lineAddr uint32) (tag, si int) {
	key := lineAddr | 1
	if c.tags[c.hitTag] == key {
		return c.hitTag, c.hit
	}
	set := c.set(lineAddr)
	base := set * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == key {
			return base + w, w*(c.setMask+1) + set
		}
	}
	return -1, -1
}

// line returns the state and flags at state index si. Its chunk must
// exist: replace builds it before the first install into a line it covers.
func (c *Cache) line(si int) (*lineState, *uint8) {
	m := c.chunks[si>>chunkBits]
	return &m.state[si&chunkMask], &m.flags[si&chunkMask]
}

// replace picks the line lineAddr is installed into, returning its tag and
// state indices, and evicts the line there, writing it back if dirty. An
// install into an invalid line builds its chunk if it does not exist yet.
// It counts the install.
func (c *Cache) replace(at sim.Time, lineAddr uint32, client *DRAMClient) (tag, si int) {
	set := c.set(lineAddr)
	w := c.victim(set)
	tag, si = set*c.ways+w, w*(c.setMask+1)+set
	if t := c.tags[tag]; t == 0 {
		if c.chunks[si>>chunkBits] == nil {
			c.chunks[si>>chunkBits] = new(lineChunk)
		}
	} else {
		c.stats.Evictions++
		if _, f := c.line(si); *f&lineDirty != 0 {
			c.stats.Writebacks++
			c.next.WritebackLine(at, t&^1, c.cfg.LineSize, client)
		}
	}
	c.fills++
	return tag, si
}

// victim returns the way of set to install into: the first invalid way
// after way 0, else the least recently used, the lowest way on a tie. It
// reads the state of valid lines only, whose chunks exist; an invalid way 0
// reads as never used.
func (c *Cache) victim(set int) int {
	tags := c.tags[set*c.ways : (set+1)*c.ways]
	chunks, sets := c.chunks, c.setMask+1
	v, lru := 0, uint64(0)
	if tags[0] != 0 {
		lru = chunks[set>>chunkBits].state[set&chunkMask].lastUse
	}
	for w, si := 1, set+sets; w < len(tags); w, si = w+1, si+sets {
		if tags[w] == 0 {
			return w
		}
		if u := chunks[si>>chunkBits].state[si&chunkMask].lastUse; u < lru {
			v, lru = w, u
		}
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
	if tag, si := c.lookup(lineAddr); tag >= 0 {
		c.hitTag, c.hit = tag, si
		c.stats.Hits++
		line, flags := c.line(si)
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
	tag, si := c.replace(at, lineAddr, client)
	fillDone := c.next.FetchLine(at+c.cfg.HitLatency, lineAddr, c.cfg.LineSize, client)
	c.stats.MissServiceTime += fillDone - at
	c.tags[tag] = lineAddr | 1
	line, flags := c.line(si)
	*line = lineState{readyAt: fillDone, lastUse: c.useTick}
	*flags = 0
	if write {
		*flags = lineDirty
	}
	c.hitTag, c.hit = tag, si
	return fillDone
}

// Prefetch installs lineAddr if absent, fetching it from the next level,
// and reports whether a fill was actually issued. The demand path is not
// blocked; a later demand access waits only for the remaining fill time.
func (c *Cache) Prefetch(at sim.Time, lineAddr uint32, client *DRAMClient) bool {
	lineAddr = c.lineAddr(lineAddr)
	if tag, _ := c.lookup(lineAddr); tag >= 0 {
		return false // already present or in flight
	}
	c.useTick++
	tag, si := c.replace(at, lineAddr, client)
	fillDone := c.next.FetchLine(at, lineAddr, c.cfg.LineSize, client)
	c.stats.PrefetchIssued++
	c.tags[tag] = lineAddr | 1
	line, flags := c.line(si)
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
