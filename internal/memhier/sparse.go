// Package memhier models the memory hierarchies of the evaluated in-SSD
// compute engines (Table IV): set-associative write-back caches backed by
// the shared SSD DRAM, a DCPT-style delta prefetcher, single-cycle
// scratchpads, and the ASSASIN input/output stream buffers with their
// prefetched head FIFO. Caches are timing models; scratchpads, stream
// buffers and the sparse backing store also carry functional data so that
// kernels compute real results.
package memhier

import (
	"encoding/binary"
	"fmt"
)

const sparsePageBits = 12 // 4 KiB functional pages

// SparseMem is a functional byte-addressable memory backed by a page map.
// It stores data for the DRAM address space (staging buffers, kernel spill).
// Values are little-endian. Unwritten bytes read as zero.
type SparseMem struct {
	pages map[uint32]*sparsePage
	// lastPN and lastPage memoize the most recently used allocated page.
	// Pages are never freed, so the memo cannot go stale.
	lastPN   uint32
	lastPage *sparsePage
}

type sparsePage [1 << sparsePageBits]byte

// NewSparseMem returns an empty memory.
func NewSparseMem() *SparseMem {
	return &SparseMem{pages: make(map[uint32]*sparsePage)}
}

const sparsePageMask = 1<<sparsePageBits - 1

func (m *SparseMem) page(addr uint32, create bool) *sparsePage {
	pn := addr >> sparsePageBits
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = new(sparsePage)
		m.pages[pn] = p
	}
	m.lastPN, m.lastPage = pn, p
	return p
}

// ByteAt returns the byte at addr.
func (m *SparseMem) ByteAt(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&sparsePageMask]
}

// SetByte stores b at addr.
func (m *SparseMem) SetByte(addr uint32, b byte) {
	m.page(addr, true)[addr&sparsePageMask] = b
}

// inPage reports whether size > 0 bytes at addr lie in one page.
func inPage(addr uint32, size int) bool {
	return size > 0 && int(addr&sparsePageMask)+size <= 1<<sparsePageBits
}

// Read returns size (1, 2 or 4) bytes at addr, little-endian. An access
// inside one page does one page lookup; one that straddles two goes byte
// by byte.
func (m *SparseMem) Read(addr uint32, size int) uint32 {
	var v uint32
	if !inPage(addr, size) {
		for i := 0; i < size; i++ {
			v |= uint32(m.ByteAt(addr+uint32(i))) << (8 * i)
		}
		return v
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	b := p[addr&sparsePageMask:]
	if size == 4 {
		return binary.LittleEndian.Uint32(b)
	}
	for i := 0; i < size; i++ {
		v |= uint32(b[i]) << (8 * i)
	}
	return v
}

// Write stores the low size bytes of v at addr, little-endian, with the
// same page-granular path as Read.
func (m *SparseMem) Write(addr uint32, size int, v uint32) {
	if !inPage(addr, size) {
		for i := 0; i < size; i++ {
			m.SetByte(addr+uint32(i), byte(v>>(8*i)))
		}
		return
	}
	b := m.page(addr, true)[addr&sparsePageMask:]
	if size == 4 {
		binary.LittleEndian.PutUint32(b, v)
		return
	}
	for i := 0; i < size; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// WriteRange copies data into memory starting at addr.
func (m *SparseMem) WriteRange(addr uint32, data []byte) {
	for i, b := range data {
		m.SetByte(addr+uint32(i), b)
	}
}

// String summarizes the memory for diagnostics.
func (m *SparseMem) String() string {
	return fmt.Sprintf("SparseMem{%d pages}", len(m.pages))
}
