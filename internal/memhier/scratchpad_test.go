package memhier

import (
	"bytes"
	"fmt"
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

// TestScratchpadLoadSizesPrefix pins the prefix rule for function state: a
// load into an empty scratchpad backs exactly the image (AES's 16,896-byte
// tables and key schedule, not 32 KiB), stores inside it do not grow it, and
// growth past it rounds up to a power of two and keeps the image.
func TestScratchpadLoadSizesPrefix(t *testing.T) {
	const image = 16896
	s := NewScratchpad(64 << 10)
	data := make([]byte, image)
	rand.New(rand.NewSource(3)).Read(data)
	if err := s.LoadBytes(0, data); err != nil {
		t.Fatal(err)
	}
	if len(s.data) != image || cap(s.data) != image {
		t.Fatalf("a %d-byte image into an empty scratchpad is backed by %d bytes (cap %d)", image, len(s.data), cap(s.data))
	}
	if err := s.Write(image-4, 4, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadBytes(0, data[:image/2]); err != nil {
		t.Fatal(err)
	}
	if len(s.data) != image {
		t.Fatalf("stores and loads inside the image grew the prefix to %d bytes", len(s.data))
	}
	if err := s.Write(image, 1, 0x5a); err != nil {
		t.Fatal(err)
	}
	if len(s.data) != 32<<10 {
		t.Fatalf("a store past the image grew the prefix to %d bytes, want %d", len(s.data), 32<<10)
	}
	want := append(append(data[:image-4:image-4], 0xef, 0xbe, 0xad, 0xde), 0x5a)
	if got, _ := s.Bytes(0, image+1); !bytes.Equal(got, want) {
		t.Fatal("growth past the image lost its bytes")
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
	image := -1 // the exact prefix of a load into the empty scratchpad
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
			if len(s.data) == 0 {
				image = off + n
			}
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
		if n := len(s.data); n > size || (n != size && n != image && n&(n-1) != 0) {
			t.Fatalf("backing of %d bytes is neither a power of two, the first image nor the capacity", n)
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

// TestScratchpadWordAccess pins the in-place word path that Read, Write and
// the compiled core's loads and stores share. For sizes 1, 2 and 4, Read
// matches a byte-wise reference at offsets inside, straddling and past the
// written prefix and at the capacity; Word answers only inside the prefix;
// Write round-trips through Read; and the out-of-range error text is
// unchanged.
func TestScratchpadWordAccess(t *testing.T) {
	const size = 1024
	s := NewScratchpad(size)
	ref := make([]byte, size)
	for i := range 100 {
		ref[i] = byte(i*37 + 11)
	}
	if err := s.LoadBytes(0, ref[:100]); err != nil {
		t.Fatal(err)
	}
	prefix := len(s.data) // 128: [0,100) written, [100,128) zero-filled
	refRead := func(off uint32, n int) uint32 {
		var v uint32
		for i := range n {
			v |= uint32(ref[int(off)+i]) << (8 * i)
		}
		return v
	}
	rangeErr := func(off uint32, n int) string {
		return fmt.Sprintf("memhier: scratchpad access [%d,%d) out of range (size %d)", off, int(off)+n, size)
	}
	offsets := []uint32{0, 1, 50, 99, 124, 125, 126, 127, 128, 129, 700, size - 4, size - 2, size - 1, size, size + 3}
	for _, n := range []int{1, 2, 4} {
		for _, off := range offsets {
			v, err := s.Read(off, n)
			w, ok := s.Word(off, n)
			if int(off)+n > size {
				if err == nil || err.Error() != rangeErr(off, n) {
					t.Fatalf("Read(%d, %d) error = %v, want %q", off, n, err, rangeErr(off, n))
				}
				if ok {
					t.Fatalf("Word(%d, %d) answered past the capacity", off, n)
				}
				continue
			}
			if err != nil || v != refRead(off, n) {
				t.Fatalf("Read(%d, %d) = %#x, %v; want %#x", off, n, v, err, refRead(off, n))
			}
			if inside := int(off)+n <= prefix; ok != inside || (ok && w != v) {
				t.Fatalf("Word(%d, %d) = %#x, %v; want %#x, %v", off, n, w, ok, v, inside)
			}
		}
	}
	if len(s.data) != prefix {
		t.Fatalf("reads grew the prefix to %d bytes", len(s.data))
	}

	// Write then Read, inside the prefix, straddling it and past it; SetWord
	// writes nothing outside the prefix.
	for i, off := range []uint32{3, 127, 200, 130, 600, size - 4} {
		n := []int{1, 2, 4}[i%3]
		v := uint32(0xa1b2c3d4) ^ uint32(i)<<8
		end := int(off) + n
		if grows := end > len(s.data); s.SetWord(off, n, v) == grows {
			t.Fatalf("SetWord(%d, %d) with a %d-byte prefix: ok = %v", off, n, len(s.data), !grows)
		}
		if err := s.Write(off, n, v); err != nil {
			t.Fatal(err)
		}
		for j := range n {
			ref[int(off)+j] = byte(v >> (8 * j))
		}
		if got, err := s.Read(off, n); err != nil || got != refRead(off, n) {
			t.Fatalf("Read(%d, %d) after Write = %#x, %v; want %#x", off, n, got, err, refRead(off, n))
		}
		if got, _ := s.Bytes(0, size); !bytes.Equal(got, ref) {
			t.Fatalf("Write(%d, %d) disturbed other bytes", off, n)
		}
	}
	if err := s.Write(size-1, 2, 0); err == nil || err.Error() != rangeErr(size-1, 2) {
		t.Fatalf("Write past the capacity: error = %v, want %q", err, rangeErr(size-1, 2))
	}

	var none *Scratchpad
	if _, ok := none.Word(0, 4); ok {
		t.Fatal("Word on a nil scratchpad answered")
	}
	if none.SetWord(0, 4, 1) {
		t.Fatal("SetWord on a nil scratchpad answered")
	}
}
