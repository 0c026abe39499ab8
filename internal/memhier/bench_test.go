package memhier

import (
	"testing"

	"assasin/internal/sim"
)

func BenchmarkCacheHit(b *testing.B) {
	c := NewCache(CacheConfig{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64}, DRAMLevel{testDRAM()})
	c.Access(0, 0x8000_0000, 4, false, 1, "b")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(sim.Time(i), 0x8000_0000+uint32(i%16)*4, 4, false, 1, "b")
	}
}

func BenchmarkCacheMissStream(b *testing.B) {
	c := NewCache(CacheConfig{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64}, DRAMLevel{testDRAM()})
	b.ResetTimer()
	addr := uint32(0x8000_0000)
	at := sim.Time(0)
	for i := 0; i < b.N; i++ {
		at = c.Access(at, addr, 4, false, 1, "b")
		addr += 64
	}
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

// BenchmarkStreamBulkCopy measures the page-granular bulk stream paths the
// compiled interpreter and firmware ride: Push into an InStream, CopyOut of the
// delivered window, and BulkAppend+Drain through an OutStream.
func BenchmarkStreamBulkCopy(b *testing.B) {
	const page = 4096
	in := NewInStream(8, page)
	out := NewOutStream(8, page)
	data := make([]byte, page)
	for i := range data {
		data[i] = byte(i)
	}
	dst := make([]byte, page)
	b.SetBytes(page)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := in.Push(data, 0); err != nil {
			b.Fatal(err)
		}
		if n := in.CopyOut(dst, in.Head()); n != page {
			b.Fatalf("CopyOut = %d", n)
		}
		if err := in.Adv(page); err != nil {
			b.Fatal(err)
		}
		if !out.BulkAppend(dst) {
			b.Fatal("BulkAppend refused")
		}
		if got := out.Drain(page, 0); len(got) != page {
			b.Fatalf("Drain = %d", len(got))
		}
	}
}

func BenchmarkDRAMAccess(b *testing.B) {
	d := NewDRAM(DefaultDRAMConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Access(sim.Time(i)*100, 64, i&1 == 0, "b")
	}
}
