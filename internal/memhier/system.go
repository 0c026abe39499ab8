package memhier

import (
	"fmt"

	"assasin/internal/sim"
)

// Core-visible address map. The scratchpad occupies a fixed window; stream
// windows are exposed as per-slot "view" regions so that software-managed
// configurations (Baseline, Prefetch, UDP, AssasinSp) can walk pointers over
// staged stream data with ordinary loads/stores; everything at DRAMBase and
// above is the SSD DRAM address space.
const (
	ScratchpadBase = 0x1000_0000

	// StreamInViewBase exposes input stream slot s at
	// StreamInViewBase + s*StreamViewStride + (absoluteOffset % StreamViewStride).
	StreamInViewBase = 0x4000_0000
	// StreamOutViewBase likewise exposes output stream slots for stores.
	StreamOutViewBase = 0x6000_0000
	// StreamViewStride is the per-slot view size (16 MiB); stream windows
	// are far smaller, so view offsets are unambiguous.
	StreamViewStride = 1 << 24

	DRAMBase = 0x8000_0000
)

// AccessResult describes the outcome of a core memory or stream access.
type AccessResult struct {
	Value  uint32
	Done   sim.Time
	Status LoadStatus // LoadBlocked means retry after an external wake
}

// System is the per-core memory system: the address decoder plus the
// configuration's particular mix of scratchpad, caches, DRAM and stream
// buffers. The CPU model issues all data-side accesses through it.
type System struct {
	Clock      sim.Clock
	Scratchpad *Scratchpad // nil when the config has none
	L1         *Cache      // nil when the config has no data cache
	DRAM       *DRAM       // shared SSD DRAM (required)
	Backing    *SparseMem  // functional data for the DRAM space
	Streams    *StreamBuffer
	// Client tags this core's DRAM traffic, through the caches too.
	Client DRAMClient
}

// viewTiming applies the configuration's data-path timing to a stream-view
// access that functionally resolved at `ready`. Where staged stream data
// lives follows from the configuration: a core with a scratchpad has its
// pages DMAed into core-local (ping-pong) scratchpads and pays scratchpad
// latency (AssasinSp, AssasinSb, AssasinSb$, UDP); a core without one reads
// pages staged in SSD DRAM through its caches (Baseline, Prefetch).
func (m *System) viewTiming(at, ready sim.Time, addr uint32, size int, write bool, pc uint32) sim.Time {
	switch {
	case m.Scratchpad != nil:
		return sim.MaxT(ready, at+m.Scratchpad.ExtraLatency(m.Clock))
	case m.L1 != nil:
		return sim.MaxT(ready, m.L1.Access(at, addr, size, write, pc, &m.Client))
	case m.DRAM != nil:
		return sim.MaxT(ready, m.DRAM.Access(at, size, write, &m.Client))
	}
	return ready
}

func (m *System) inStream(slot int) (*InStream, error) {
	if m.Streams == nil || slot >= len(m.Streams.In) {
		return nil, fmt.Errorf("memhier: no input stream slot %d", slot)
	}
	return m.Streams.In[slot], nil
}

func (m *System) outStream(slot int) (*OutStream, error) {
	if m.Streams == nil || slot >= len(m.Streams.Out) {
		return nil, fmt.Errorf("memhier: no output stream slot %d", slot)
	}
	return m.Streams.Out[slot], nil
}

// Load performs a data load of size bytes at addr at time at (pc drives the
// prefetcher). LoadBlocked results mean the access touched stream data that
// has not arrived; the core should stall and retry.
func (m *System) Load(at sim.Time, addr uint32, size int, pc uint32) (AccessResult, error) {
	switch {
	case addr >= DRAMBase || addr < ScratchpadBase:
		// Wrap-around of small negative offsets lands below ScratchpadBase;
		// treat everything outside the defined windows as DRAM space.
		var done sim.Time
		if m.L1 != nil {
			done = m.L1.Access(at, addr, size, false, pc, &m.Client)
		} else if m.DRAM != nil {
			done = m.DRAM.Access(at, size, false, &m.Client)
		} else {
			done = at
		}
		return AccessResult{Value: m.Backing.Read(addr, size), Done: done}, nil

	case addr >= StreamOutViewBase:
		return AccessResult{}, fmt.Errorf("memhier: load from output stream view %#x", addr)

	case addr >= StreamInViewBase:
		slot := int((addr - StreamInViewBase) / StreamViewStride)
		st, err := m.inStream(slot)
		if err != nil {
			return AccessResult{}, err
		}
		off24 := int64((addr - StreamInViewBase) % StreamViewStride)
		// Reconstruct the absolute stream offset from the 24-bit view
		// offset and the window position: head plus (off24-head) mod the
		// power-of-two stride.
		head := st.Head()
		abs := head + (off24-head)&(StreamViewStride-1)
		v, ready, status := st.ReadAt(at, abs, size)
		if status == LoadEOS {
			return AccessResult{}, fmt.Errorf("memhier: stream view load beyond stream (slot %d abs %d)", slot, abs)
		}
		if status == LoadBlocked {
			return AccessResult{Status: LoadBlocked, Done: at}, nil
		}
		ready = m.viewTiming(at, ready, addr, size, false, pc)
		return AccessResult{Value: v, Done: ready}, nil

	default: // scratchpad window
		if m.Scratchpad == nil {
			return AccessResult{}, fmt.Errorf("memhier: scratchpad load at %#x but no scratchpad", addr)
		}
		v, err := m.Scratchpad.Read(addr-ScratchpadBase, size)
		if err != nil {
			return AccessResult{}, err
		}
		return AccessResult{Value: v, Done: at + m.Scratchpad.ExtraLatency(m.Clock)}, nil
	}
}

// Store performs a data store. Stores to output stream views must be
// sequential appends (the kernels' access pattern); a full output window
// reports LoadBlocked.
func (m *System) Store(at sim.Time, addr uint32, size int, v uint32, pc uint32) (AccessResult, error) {
	switch {
	case addr >= DRAMBase || addr < ScratchpadBase:
		var done sim.Time
		if m.L1 != nil {
			done = m.L1.Access(at, addr, size, true, pc, &m.Client)
		} else if m.DRAM != nil {
			done = m.DRAM.Access(at, size, true, &m.Client)
		} else {
			done = at
		}
		m.Backing.Write(addr, size, v)
		return AccessResult{Done: done}, nil

	case addr >= StreamOutViewBase:
		slot := int((addr - StreamOutViewBase) / StreamViewStride)
		st, err := m.outStream(slot)
		if err != nil {
			return AccessResult{}, err
		}
		off24 := int64((addr - StreamOutViewBase) % StreamViewStride)
		if want := st.Tail() % StreamViewStride; off24 != want {
			return AccessResult{}, fmt.Errorf("memhier: non-sequential output view store (slot %d off %d, want %d)", slot, off24, want)
		}
		if !st.Append(v, size) {
			return AccessResult{Status: LoadBlocked, Done: at}, nil
		}
		done := m.viewTiming(at, at, addr, size, true, pc)
		return AccessResult{Done: done}, nil

	case addr >= StreamInViewBase:
		return AccessResult{}, fmt.Errorf("memhier: store to input stream view %#x", addr)

	default:
		if m.Scratchpad == nil {
			return AccessResult{}, fmt.Errorf("memhier: scratchpad store at %#x but no scratchpad", addr)
		}
		if err := m.Scratchpad.Write(addr-ScratchpadBase, size, v); err != nil {
			return AccessResult{}, err
		}
		return AccessResult{Done: at + m.Scratchpad.ExtraLatency(m.Clock)}, nil
	}
}

// StreamLoad implements the StreamLoad instruction against input slot s.
func (m *System) StreamLoad(at sim.Time, slot, width int) (AccessResult, error) {
	st, err := m.inStream(slot)
	if err != nil {
		return AccessResult{}, err
	}
	v, ready, status := st.Load(at, width)
	return AccessResult{Value: v, Done: ready, Status: status}, nil
}

// StreamPeek implements the StreamPeek instruction.
func (m *System) StreamPeek(at sim.Time, slot, width int, off int64) (AccessResult, error) {
	st, err := m.inStream(slot)
	if err != nil {
		return AccessResult{}, err
	}
	v, ready, status := st.Peek(at, off, width)
	return AccessResult{Value: v, Done: ready, Status: status}, nil
}

// StreamAdv implements the StreamAdvance instruction: it releases n bytes of
// input window space under InStream.Adv's rule.
func (m *System) StreamAdv(at sim.Time, slot int, n int64) (AccessResult, error) {
	st, err := m.inStream(slot)
	if err != nil {
		return AccessResult{}, err
	}
	blocked, err := st.Adv(n)
	if err != nil {
		return AccessResult{}, err
	}
	if blocked {
		return AccessResult{Status: LoadBlocked, Done: at}, nil
	}
	return AccessResult{Done: at}, nil
}

// StreamStore implements the StreamStore instruction against output slot s.
func (m *System) StreamStore(at sim.Time, slot, width int, v uint32) (AccessResult, error) {
	st, err := m.outStream(slot)
	if err != nil {
		return AccessResult{}, err
	}
	if !st.Append(v, width) {
		return AccessResult{Status: LoadBlocked, Done: at}, nil
	}
	return AccessResult{Done: at}, nil
}

// StreamEnd implements the StreamEnd instruction: 1 when slot is exhausted.
func (m *System) StreamEnd(slot int) (uint32, error) {
	st, err := m.inStream(slot)
	if err != nil {
		return 0, err
	}
	if st.Exhausted() {
		return 1, nil
	}
	return 0, nil
}

// StreamCsr reads a stream CSR (Head/Tail of input slot s).
func (m *System) StreamCsr(slot int, csr int32) (uint32, error) {
	st, err := m.inStream(slot)
	if err != nil {
		return 0, err
	}
	switch csr {
	case 0:
		return uint32(st.Head()), nil
	case 1:
		return uint32(st.Tail()), nil
	default:
		return 0, fmt.Errorf("memhier: unknown stream CSR %d", csr)
	}
}
