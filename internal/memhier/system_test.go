package memhier

import (
	"testing"

	"assasin/internal/sim"
)

func testSystem(withCache bool) *System {
	dram := testDRAM()
	sys := &System{
		Clock:   sim.NewClock(1e9),
		DRAM:    dram,
		Backing: NewSparseMem(),
		Streams: NewStreamBuffer(2, 2, 2, 64),
		Client:  DRAMClient{Name: "core0"},
	}
	if withCache {
		l2 := NewCache(CacheConfig{Name: "l2", Size: 4096, Ways: 4, LineSize: 64, HitLatency: 10 * sim.Nanosecond}, DRAMLevel{dram})
		sys.L1 = NewCache(CacheConfig{Name: "l1", Size: 512, Ways: 2, LineSize: 64}, l2)
	} else {
		sys.Scratchpad = NewScratchpad(4096)
	}
	return sys
}

func TestSystemScratchpadLoadStore(t *testing.T) {
	sys := testSystem(false)
	addr := uint32(ScratchpadBase + 16)
	if _, err := sys.Store(0, addr, 4, 0xcafebabe, 0); err != nil {
		t.Fatal(err)
	}
	r, err := sys.Load(0, addr, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0xcafebabe {
		t.Fatalf("value = %#x", r.Value)
	}
	if r.Done != 0 { // single-cycle scratchpad: no extra latency
		t.Fatalf("done = %v", r.Done)
	}
	// 2-cycle scratchpad (timing-adjusted): one extra cycle.
	sys.Scratchpad.AccessCycles = 2
	r, _ = sys.Load(0, addr, 4, 0)
	if r.Done != sim.Nanosecond {
		t.Fatalf("2-cycle scratchpad done = %v, want 1ns", r.Done)
	}
}

func TestSystemScratchpadBoundsError(t *testing.T) {
	sys := testSystem(false)
	if _, err := sys.Load(0, ScratchpadBase+100000, 4, 0); err == nil {
		t.Fatal("out-of-range scratchpad load accepted")
	}
}

func TestSystemDRAMPathThroughCache(t *testing.T) {
	sys := testSystem(true)
	addr := uint32(DRAMBase + 0x100)
	sys.Backing.Write(addr, 4, 42)
	r, err := sys.Load(0, addr, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 42 {
		t.Fatalf("value = %d", r.Value)
	}
	if r.Done < 60*sim.Nanosecond {
		t.Fatalf("first touch should pay DRAM latency, done=%v", r.Done)
	}
	// Second load: L1 hit, free.
	r, _ = sys.Load(sim.Microsecond, addr, 4, 5)
	if r.Done != sim.Microsecond {
		t.Fatalf("hit done = %v", r.Done)
	}
}

func TestSystemStreamViewLoad(t *testing.T) {
	sys := testSystem(false)
	in := sys.Streams.In[1]
	page := make([]byte, 64)
	for i := range page {
		page[i] = byte(i)
	}
	in.Push(page, 500*sim.Nanosecond)

	addr := uint32(StreamInViewBase + 1*StreamViewStride + 8)
	r, err := sys.Load(0, addr, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0x0b0a0908 {
		t.Fatalf("view value = %#x", r.Value)
	}
	if r.Done != 500*sim.Nanosecond {
		t.Fatalf("view availability gating: done = %v", r.Done)
	}

	// Not yet delivered: blocked.
	r, err = sys.Load(0, addr+64, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != LoadBlocked {
		t.Fatalf("beyond tail: %v", r.Status)
	}
}

func TestSystemStreamViewCachedPath(t *testing.T) {
	sys := testSystem(true)
	in := sys.Streams.In[0]
	in.Push(make([]byte, 128), 0)
	addr := uint32(StreamInViewBase)
	r, err := sys.Load(0, addr, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Cached path: compulsory miss to DRAM.
	if r.Done < 60*sim.Nanosecond {
		t.Fatalf("cached view first touch done = %v", r.Done)
	}
	if sys.L1.Stats().Misses == 0 {
		t.Error("view access did not touch cache")
	}
	// Same line again: hit.
	r, _ = sys.Load(sim.Microsecond, addr+4, 4, 9)
	if r.Done != sim.Microsecond {
		t.Fatalf("cached view hit done = %v", r.Done)
	}
}

func TestSystemStreamViewWrapReconstruction(t *testing.T) {
	sys := testSystem(false)
	in := sys.Streams.In[0]
	// Advance the stream far, then verify view addressing still resolves.
	total := 0
	for total < 300 {
		in.Push(make([]byte, 64), 0)
		for i := 0; i < 64; i++ {
			in.Load(0, 1)
		}
		total += 64
	}
	marker := make([]byte, 64)
	marker[3] = 0x7f
	in.Push(marker, 0)
	abs := in.Head() + 3
	addr := uint32(StreamInViewBase + (abs % StreamViewStride))
	r, err := sys.Load(0, addr, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0x7f {
		t.Fatalf("wrapped view load = %#x", r.Value)
	}
}

func TestSystemOutViewSequentialStore(t *testing.T) {
	sys := testSystem(false)
	base := uint32(StreamOutViewBase)
	for i := uint32(0); i < 8; i += 4 {
		r, err := sys.Store(0, base+i, 4, 0x11111111*uint32(i/4+1), 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != LoadOK {
			t.Fatalf("store %d blocked", i)
		}
	}
	out := sys.Streams.Out[0]
	got := take(out, 8, 0)
	if got[0] != 0x11 || got[4] != 0x22 {
		t.Fatalf("out data = %v", got)
	}
	// Non-sequential store is a kernel bug.
	if _, err := sys.Store(0, base+100, 4, 0, 0); err == nil {
		t.Fatal("non-sequential store accepted")
	}
}

func TestSystemOutViewFullBlocks(t *testing.T) {
	sys := testSystem(false)
	out := sys.Streams.Out[0]
	cap := out.WindowBytes()
	base := uint32(StreamOutViewBase)
	for i := 0; i < cap; i += 4 {
		r, err := sys.Store(0, base+uint32(i), 4, 0, 0)
		if err != nil || r.Status != LoadOK {
			t.Fatalf("fill store %d: %v %v", i, err, r.Status)
		}
	}
	r, err := sys.Store(0, base+uint32(cap%StreamViewStride), 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != LoadBlocked {
		t.Fatal("store to full window not blocked")
	}
}

func TestSystemStreamOps(t *testing.T) {
	sys := testSystem(false)
	in := sys.Streams.In[0]
	in.Push([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 0)
	in.Close()

	r, err := sys.StreamLoad(0, 0, 4)
	if err != nil || r.Status != LoadOK || r.Value != 0x04030201 {
		t.Fatalf("StreamLoad: %+v %v", r, err)
	}
	r, _ = sys.StreamPeek(0, 0, 2, 1)
	if r.Value != 0x0706 {
		t.Fatalf("StreamPeek = %#x", r.Value)
	}
	if eos, _ := sys.StreamEnd(0); eos != 0 {
		t.Fatal("premature EOS")
	}
	sys.StreamAdv(0, 0, 4)
	if eos, _ := sys.StreamEnd(0); eos != 1 {
		t.Fatal("EOS not reported")
	}
	head, _ := sys.StreamCsr(0, 0)
	tail, _ := sys.StreamCsr(0, 1)
	if head != 8 || tail != 8 {
		t.Fatalf("CSRs: head=%d tail=%d", head, tail)
	}
}

func TestSystemStreamStore(t *testing.T) {
	sys := testSystem(false)
	r, err := sys.StreamStore(0, 1, 2, 0xbeef)
	if err != nil || r.Status != LoadOK {
		t.Fatalf("StreamStore: %+v %v", r, err)
	}
	got := take(sys.Streams.Out[1], 2, 0)
	if got[0] != 0xef || got[1] != 0xbe {
		t.Fatalf("stored = %v", got)
	}
}
