package memhier

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSparseMemReadWrite(t *testing.T) {
	m := NewSparseMem()
	if m.Read(0x8000_0000, 4) != 0 {
		t.Error("unwritten memory not zero")
	}
	m.Write(0x8000_0000, 4, 0xdeadbeef)
	if got := m.Read(0x8000_0000, 4); got != 0xdeadbeef {
		t.Errorf("Read = %#x", got)
	}
	// Little-endian byte order.
	if got := m.ByteAt(0x8000_0000); got != 0xef {
		t.Errorf("low byte = %#x, want 0xef", got)
	}
	if got := m.Read(0x8000_0002, 2); got != 0xdead {
		t.Errorf("high half = %#x, want 0xdead", got)
	}
}

func TestSparseMemCrossPageBoundary(t *testing.T) {
	m := NewSparseMem()
	addr := uint32(1<<sparsePageBits - 2) // straddles two 4K pages
	m.Write(addr, 4, 0x11223344)
	if got := m.Read(addr, 4); got != 0x11223344 {
		t.Errorf("cross-page read = %#x", got)
	}
}

func TestSparseMemRanges(t *testing.T) {
	m := NewSparseMem()
	data := []byte("the quick brown fox jumps over the lazy dog")
	m.WriteRange(0x9000_0100, data)
	got := make([]byte, len(data))
	for i := range got {
		got[i] = m.ByteAt(0x9000_0100 + uint32(i))
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q", got)
	}
}

func TestSparseMemQuick(t *testing.T) {
	m := NewSparseMem()
	prop := func(addr uint32, v uint32) bool {
		m.Write(addr, 4, v)
		return m.Read(addr, 4) == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSparseMemFootprint(t *testing.T) {
	m := NewSparseMem()
	if len(m.pages) != 0 {
		t.Error("fresh memory has pages")
	}
	m.SetByte(0, 1)
	m.SetByte(1<<sparsePageBits, 1)
	if len(m.pages) != 2 {
		t.Errorf("two pages written, %d allocated", len(m.pages))
	}
}

func TestSparseMemRandomizedAgainstMap(t *testing.T) {
	m := NewSparseMem()
	ref := make(map[uint32]byte)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		addr := uint32(rng.Intn(1 << 20))
		if rng.Intn(2) == 0 {
			b := byte(rng.Intn(256))
			m.SetByte(addr, b)
			ref[addr] = b
		} else if m.ByteAt(addr) != ref[addr] {
			t.Fatalf("mismatch at %#x", addr)
		}
	}
}

// FuzzSparseMem runs a sequence of Read/Write ops clustered around base
// against a byte-wise reference. Each op is 4 bytes: bit 0 of the first
// selects a write, bits 1-3 the size (0-7), the second is a signed offset
// from base, the last two seed the stored value. Seeds sit at page ends so
// that accesses straddle pages. Footprint must count exactly the pages
// that a byte was written to.
func FuzzSparseMem(f *testing.F) {
	f.Add(uint32(1<<sparsePageBits-2), []byte{0x09, 0, 0x44, 0x33, 0x08, 0, 0, 0, 0x08, 1, 0, 0})
	f.Add(uint32(0xffff_fffe), []byte{0x09, 0, 0xaa, 0xbb, 0x08, 0xff, 0, 0, 0x04, 2, 0, 0})
	f.Add(uint32(0x8000_0ffd), []byte{0x07, 0, 1, 2, 0x05, 0xfe, 3, 4, 0x08, 0xfe, 0, 0, 0x01, 9, 0, 0})
	f.Fuzz(func(t *testing.T, base uint32, ops []byte) {
		m := NewSparseMem()
		ref := make(map[uint32]byte)
		pages := make(map[uint32]bool)
		for ; len(ops) >= 4; ops = ops[4:] {
			size := int(ops[0]>>1) & 7
			addr := base + uint32(int8(ops[1]))
			v := uint32(ops[2])<<24 | uint32(ops[3])<<8 | uint32(ops[2]^ops[3])
			if ops[0]&1 != 0 {
				m.Write(addr, size, v)
				for i := 0; i < size; i++ {
					ref[addr+uint32(i)] = byte(v >> (8 * i))
					pages[(addr+uint32(i))>>sparsePageBits] = true
				}
				continue
			}
			var want uint32
			for i := 0; i < size; i++ {
				want |= uint32(ref[addr+uint32(i)]) << (8 * i)
			}
			if got := m.Read(addr, size); got != want {
				t.Fatalf("Read(%#x, %d) = %#x, want %#x", addr, size, got, want)
			}
		}
		if got, want := len(m.pages), len(pages); got != want {
			t.Fatalf("%d pages allocated, want %d", got, want)
		}
	})
}
