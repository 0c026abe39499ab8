package memhier

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"assasin/internal/sim"
)

// Scratchpad is a software-managed SRAM tightly coupled to the core
// pipeline, holding function state (GF tables, AES round keys, accumulators,
// parse state machines — Table II). It carries functional data and a fixed
// access latency in cycles.
//
// The paper's circuit evaluation (Fig. 20) shows a 64 KiB scratchpad cannot
// be read in a single 1 GHz cycle; the timing-adjusted configurations raise
// AccessCycles to 2. Both are expressed here.
//
// data holds only the written prefix: exactly the state image LoadBytes
// preloads into an empty scratchpad, and otherwise rounded up to a power of
// two, capped at size. Most kernels touch a few KiB of a 64 or 256 KiB
// scratchpad, and bytes past the prefix read as zero.
type Scratchpad struct {
	data []byte
	size int
	// AccessCycles is the pipeline cost of one access; the core model
	// charges (AccessCycles-1) stall cycles beyond the base cycle.
	AccessCycles int
}

// NewScratchpad returns a scratchpad of size bytes with single-cycle access.
func NewScratchpad(size int) *Scratchpad {
	return &Scratchpad{size: size, AccessCycles: 1}
}

// Size returns the capacity in bytes.
func (s *Scratchpad) Size() int { return s.size }

func (s *Scratchpad) check(off uint32, size int) error {
	if int(off)+size > s.size {
		return fmt.Errorf("memhier: scratchpad access [%d,%d) out of range (size %d)", off, int(off)+size, s.size)
	}
	return nil
}

// grow extends the written prefix to cover [0, end).
func (s *Scratchpad) grow(end int) {
	if end <= len(s.data) {
		return
	}
	data := make([]byte, min(1<<bits.Len(uint(end-1)), s.size))
	copy(data, s.data)
	s.data = data
}

// Word returns the size (1, 2 or 4) bytes at offset off, little-endian,
// read in place. ok is false, and nothing is read, unless every byte lies
// inside the written prefix: one unsigned compare guards the access, so an
// offset past the prefix or the capacity, and a nil scratchpad, all fall
// through to the caller's general path. The compiled core engine reads
// scratchpad words here directly; System.Load reaches it through Read.
// Scratchpads are far smaller than the 768 MiB window System maps them at,
// so an address inside the prefix is always a scratchpad address.
func (s *Scratchpad) Word(off uint32, size int) (v uint32, ok bool) {
	b, ok := s.word(off, size)
	if !ok {
		return 0, false
	}
	switch size {
	case 4:
		return binary.LittleEndian.Uint32(b), true
	case 2:
		return uint32(binary.LittleEndian.Uint16(b)), true
	}
	for i, x := range b {
		v |= uint32(x) << (8 * i)
	}
	return v, true
}

// SetWord stores the low size bytes of v at offset off in place, under the
// same guard as Word: it reports false, and writes nothing, unless every
// byte lies inside the written prefix. Write grows the prefix first.
func (s *Scratchpad) SetWord(off uint32, size int, v uint32) bool {
	b, ok := s.word(off, size)
	if !ok {
		return false
	}
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(b, v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
	}
	return true
}

// word returns the written-prefix bytes [off, off+size), or false when any
// of them lies past the prefix.
func (s *Scratchpad) word(off uint32, size int) ([]byte, bool) {
	if s == nil || uint64(off)+uint64(size) > uint64(len(s.data)) {
		return nil, false
	}
	return s.data[off : int(off)+size], true
}

// Read returns size (1, 2 or 4) bytes at offset off, little-endian.
func (s *Scratchpad) Read(off uint32, size int) (uint32, error) {
	if err := s.check(off, size); err != nil {
		return 0, err
	}
	if v, ok := s.Word(off, size); ok {
		return v, nil
	}
	// The access straddles or lies past the written prefix, whose bytes
	// read as zero.
	var v uint32
	for i := 0; i < size; i++ {
		if j := int(off) + i; j < len(s.data) {
			v |= uint32(s.data[j]) << (8 * i)
		}
	}
	return v, nil
}

// Write stores the low size bytes of v at offset off.
func (s *Scratchpad) Write(off uint32, size int, v uint32) error {
	if err := s.check(off, size); err != nil {
		return err
	}
	s.grow(int(off) + size)
	s.SetWord(off, size, v)
	return nil
}

// LoadBytes copies data into the scratchpad at off (used by the firmware to
// preload function state before a kernel starts; not charged to the kernel).
// A load into an empty scratchpad sizes the written prefix to end exactly at
// the image, which no kernel stores past.
func (s *Scratchpad) LoadBytes(off uint32, data []byte) error {
	if err := s.check(off, len(data)); err != nil {
		return err
	}
	if len(s.data) == 0 {
		s.data = make([]byte, int(off)+len(data))
	}
	s.grow(int(off) + len(data))
	copy(s.data[off:], data)
	return nil
}

// Bytes returns the scratchpad contents from off for length bytes.
func (s *Scratchpad) Bytes(off uint32, length int) ([]byte, error) {
	if err := s.check(off, length); err != nil {
		return nil, err
	}
	out := make([]byte, length)
	if int(off) < len(s.data) {
		copy(out, s.data[off:])
	}
	return out, nil
}

// ExtraLatency returns the stall time beyond the base pipeline cycle for one
// access under the given clock.
func (s *Scratchpad) ExtraLatency(clock sim.Clock) sim.Time {
	if s.AccessCycles <= 1 {
		return 0
	}
	return clock.Cycles(int64(s.AccessCycles - 1))
}
