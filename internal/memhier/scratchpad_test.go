package memhier

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestScratchpadUnwrittenReadsZero pins that bytes past the written prefix
// read as zero without growing the backing store.
func TestScratchpadUnwrittenReadsZero(t *testing.T) {
	s := NewScratchpad(64 << 10)
	if len(s.data) != 0 {
		t.Fatalf("fresh scratchpad holds %d bytes", len(s.data))
	}
	for _, off := range []uint32{0, 3, 4096, 64<<10 - 4} {
		if v, err := s.Read(off, 4); err != nil || v != 0 {
			t.Fatalf("Read(%d) = %#x, %v; want 0", off, v, err)
		}
	}
	if err := s.Write(10, 2, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if len(s.data) != 16 {
		t.Fatalf("written prefix [0,12) backed by %d bytes, want 16", len(s.data))
	}
	// A read straddling the end of the prefix sees the written byte and
	// zeros beyond it; reads past the prefix do not grow it.
	if v, _ := s.Read(14, 4); v != 0 {
		t.Fatalf("Read(14) = %#x, want 0", v)
	}
	if v, _ := s.Read(11, 4); v != 0xbe {
		t.Fatalf("Read(11) = %#x, want 0xbe", v)
	}
	if got, err := s.Bytes(8, 4096); err != nil || len(got) != 4096 || got[2] != 0xef || got[3] != 0xbe {
		t.Fatalf("Bytes(8, 4096) = %v..., %v", got[:8], err)
	}
	if len(s.data) != 16 {
		t.Fatalf("reads grew the prefix to %d bytes", len(s.data))
	}
}

// TestScratchpadMatchesFlatModel drives random Write/LoadBytes/Read/Bytes
// traffic against a flat, fully allocated byte array: the prefix-sized
// backing must be indistinguishable from it.
func TestScratchpadMatchesFlatModel(t *testing.T) {
	const size = 3000 // not a power of two: growth caps at size
	rng := rand.New(rand.NewSource(5))
	s := NewScratchpad(size)
	flat := make([]byte, size)
	for step := 0; step < 2000; step++ {
		// Offsets concentrate low, as kernel state does, with a tail
		// reaching the top of the scratchpad.
		off := rng.Intn(64 << rng.Intn(6))
		if off > size-4 {
			off = size - 4
		}
		switch rng.Intn(4) {
		case 0:
			w := []int{1, 2, 4}[rng.Intn(3)]
			v := rng.Uint32()
			if err := s.Write(uint32(off), w, v); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < w; i++ {
				flat[off+i] = byte(v >> (8 * i))
			}
		case 1:
			n := min(rng.Intn(64), size-off)
			data := make([]byte, n)
			rng.Read(data)
			if err := s.LoadBytes(uint32(off), data); err != nil {
				t.Fatal(err)
			}
			copy(flat[off:], data)
		case 2:
			w := []int{1, 2, 4}[rng.Intn(3)]
			v, err := s.Read(uint32(off), w)
			if err != nil {
				t.Fatal(err)
			}
			var want uint32
			for i := 0; i < w; i++ {
				want |= uint32(flat[off+i]) << (8 * i)
			}
			if v != want {
				t.Fatalf("step %d: Read(%d,%d) = %#x, want %#x", step, off, w, v, want)
			}
		case 3:
			n := rng.Intn(size - off + 1)
			got, err := s.Bytes(uint32(off), n)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, flat[off:off+n]) {
				t.Fatalf("step %d: Bytes(%d,%d) differs from the flat model", step, off, n)
			}
		}
		if n := len(s.data); n > size || (n != size && n&(n-1) != 0) {
			t.Fatalf("backing of %d bytes is neither a power of two nor the capacity", n)
		}
	}
	if len(s.data) != size {
		t.Fatalf("writes near the top left the backing at %d bytes, want %d", len(s.data), size)
	}
}

// TestScratchpadBoundsAtCapacity pins that Size and the out-of-range errors
// use the full capacity, not the written prefix.
func TestScratchpadBoundsAtCapacity(t *testing.T) {
	s := NewScratchpad(1024)
	if s.Size() != 1024 {
		t.Fatalf("Size() = %d, want 1024", s.Size())
	}
	if err := s.Write(0, 4, 1); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 1024 {
		t.Fatalf("Size() after a write = %d, want 1024", s.Size())
	}
	// In range although far past the prefix.
	if _, err := s.Read(1020, 4); err != nil {
		t.Fatalf("Read at the top: %v", err)
	}
	if _, err := s.Bytes(0, 1024); err != nil {
		t.Fatalf("Bytes over the whole capacity: %v", err)
	}
	if _, err := s.Read(1021, 4); err == nil {
		t.Fatal("Read past capacity accepted")
	}
	if err := s.Write(1024, 1, 0); err == nil {
		t.Fatal("Write past capacity accepted")
	}
	if err := s.LoadBytes(1000, make([]byte, 25)); err == nil {
		t.Fatal("LoadBytes past capacity accepted")
	}
	if _, err := s.Bytes(1, 1024); err == nil {
		t.Fatal("Bytes past capacity accepted")
	}
	if len(s.data) != 4 {
		t.Fatalf("rejected accesses grew the prefix to %d bytes", len(s.data))
	}
}
