package memhier

import (
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
// data holds only the written prefix (rounded up to a power of two, capped
// at size): most kernels touch a few KiB of a 64 or 256 KiB scratchpad, and
// bytes past the prefix read as zero.
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

// Read returns size (1, 2 or 4) bytes at offset off, little-endian.
func (s *Scratchpad) Read(off uint32, size int) (uint32, error) {
	if err := s.check(off, size); err != nil {
		return 0, err
	}
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
	for i := 0; i < size; i++ {
		s.data[off+uint32(i)] = byte(v >> (8 * i))
	}
	return nil
}

// LoadBytes copies data into the scratchpad at off (used by the firmware to
// preload function state before a kernel starts; not charged to the kernel).
func (s *Scratchpad) LoadBytes(off uint32, data []byte) error {
	if err := s.check(off, len(data)); err != nil {
		return err
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
