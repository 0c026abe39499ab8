package memhier

import (
	"testing"

	"assasin/internal/sim"
)

func BenchmarkCacheHit(b *testing.B) {
	dram := testDRAM()
	c := NewCache(CacheConfig{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64}, DRAMLevel{dram})
	cl := &DRAMClient{Name: "b"}
	c.Access(0, 0x8000_0000, 4, false, 1, cl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(sim.Time(i), 0x8000_0000+uint32(i%16)*4, 4, false, 1, cl)
	}
}

func BenchmarkCacheMissStream(b *testing.B) {
	dram := testDRAM()
	c := NewCache(CacheConfig{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64}, DRAMLevel{dram})
	cl := &DRAMClient{Name: "b"}
	b.ResetTimer()
	addr := uint32(0x8000_0000)
	at := sim.Time(0)
	for i := 0; i < b.N; i++ {
		at = c.Access(at, addr, 4, false, 1, cl)
		addr += 64
	}
}

// BenchmarkCachePrefetchStream is the Prefetch configuration's demand path:
// a sequential 4-byte walk through the Table IV L1D and L2 with a degree-8
// DCPT prefetcher, each access issued when the previous one completes.
func BenchmarkCachePrefetchStream(b *testing.B) {
	dram := testDRAM()
	cl := &DRAMClient{Name: "b"}
	c := NewCache(tableIVL1D, NewCache(tableIVL2, DRAMLevel{dram}))
	c.AttachPrefetcher(NewPrefetcher(8))
	addr := uint32(DRAMBase)
	at := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = c.Access(at, addr, 4, false, 0x40, cl)
		addr += 4
	}
}

// BenchmarkPrefetcherManyPCs walks 96 load pcs round robin, each on its own
// sequential stream, through a prefetcher that tracks 64: every access
// misses the pc table and replaces its oldest entry, as AES's unrolled
// rounds do.
func BenchmarkPrefetcherManyPCs(b *testing.B) {
	const pcs = 96
	dram := testDRAM()
	cl := &DRAMClient{Name: "b"}
	c := NewCache(tableIVL1D, NewCache(tableIVL2, DRAMLevel{dram}))
	c.AttachPrefetcher(NewPrefetcher(8))
	at := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint32(i % pcs)
		addr := DRAMBase + pc<<16 + uint32(i/pcs)*4
		at = c.Access(at, addr, 4, false, 0x1000+4*pc, cl)
	}
}

// BenchmarkSparseMemRead reads 4-byte words sequentially across 16 pages.
func BenchmarkSparseMemRead(b *testing.B) {
	m := NewSparseMem()
	const span = 16 << sparsePageBits
	for a := uint32(0); a < span; a += 4 {
		m.Write(DRAMBase+a, 4, a)
	}
	var sum uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += m.Read(DRAMBase+uint32(i*4)%span, 4)
	}
	_ = sum
}

func BenchmarkStreamLoad(b *testing.B) {
	s := NewInStream(64, 4096)
	page := make([]byte, 4096)
	b.SetBytes(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Buffered() < 4 {
			b.StopTimer()
			for s.CanPush(4096) {
				s.Push(page, 0)
			}
			b.StartTimer()
		}
		s.Load(0, 4)
	}
}

// BenchmarkOutStreamDrain measures the output side of the data plane: a
// core appending a page of 4-byte words, then the firmware's page drain,
// a view of the head chunk written nowhere. It must not allocate.
func BenchmarkOutStreamDrain(b *testing.B) {
	s := NewOutStream(2, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < 4096/4; w++ {
			s.Append(uint32(w), 4)
		}
		s.PeekBytes(4096)
		s.Drain(4096, 0)
	}
}

func BenchmarkDRAMAccess(b *testing.B) {
	d := NewDRAM(DefaultDRAMConfig())
	cl := &DRAMClient{Name: "b"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(sim.Time(i)*100, 64, i&1 == 0, cl)
	}
}
