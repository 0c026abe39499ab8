package memhier

import (
	"math/rand"
	"testing"

	"assasin/internal/sim"
)

// access is one demand access of a differential sequence.
type access struct {
	at    sim.Time
	addr  uint32
	size  int
	write bool
	pc    uint32
}

// pcStream is the address pattern one load/store pc follows.
type pcStream struct {
	addr   uint32
	stride int32 // 0: random addresses within span of base
	base   uint32
	span   uint32
	size   int
}

// genAccesses builds n accesses over pcs streams: sequential walks of
// either direction and several strides, fixed addresses, random pointer
// chases, and walks that straddle line boundaries (odd offsets with 4-byte
// accesses), some running off the top of the address space. Issue times
// either wait for the previous access or overlap its in-flight fills.
func genAccesses(rng *rand.Rand, n, pcs int) []access {
	strides := []int32{4, 4, 1, 2, 8, -4, 64, -64, 256, 0, 0, 4096}
	streams := make([]pcStream, pcs)
	for i := range streams {
		s := &streams[i]
		s.base = DRAMBase + uint32(rng.Intn(1<<22))
		s.span = 1 << (10 + rng.Intn(12))
		s.stride = strides[rng.Intn(len(strides))]
		s.size = []int{1, 2, 4, 4}[rng.Intn(4)]
		switch rng.Intn(6) {
		case 0:
			s.base += uint32(rng.Intn(3)*2 + 61) // straddling 4-byte walk
			s.size = 4
		case 1:
			s.base = 0xffff_ff00 // walks wrap past the top of the space
		}
		s.addr = s.base
		if s.stride == 0 && rng.Intn(3) == 0 {
			s.span = 1 // one fixed address: zero deltas
		}
	}
	out := make([]access, n)
	var at sim.Time
	for i := range out {
		pc := rng.Intn(pcs)
		s := &streams[pc]
		addr := s.addr
		if s.stride == 0 {
			addr = s.base + uint32(rng.Intn(int(s.span)))
		} else {
			s.addr += uint32(s.stride)
		}
		if rng.Intn(4) == 0 {
			at += sim.Time(rng.Intn(300)) * sim.Nanosecond
		} else {
			at += sim.Time(rng.Intn(3)) * sim.Nanosecond
		}
		out[i] = access{at: at, addr: addr, size: s.size, write: rng.Intn(5) == 0, pc: uint32(0x100 + 4*pc)}
	}
	return out
}

var (
	tableIVL1D = CacheConfig{Name: "l1d", Size: 32 << 10, Ways: 8, LineSize: 64}
	tableIVL2  = CacheConfig{Name: "l2", Size: 256 << 10, Ways: 16, LineSize: 64, HitLatency: 10 * sim.Nanosecond}
)

// TestCacheMatchesOracle drives Cache+Prefetcher and the reference with the
// same access sequences and requires every completion time and counter to
// match after each access, then residency of every touched line.
func TestCacheMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		hc   hierConfig
		pcs  int
	}{
		{"table-iv-prefetch", hierConfig{l1: tableIVL1D, l2: tableIVL2, degree: 8, tableSize: 64}, 12},
		{"table-iv-baseline", hierConfig{l1: tableIVL1D, l2: tableIVL2}, 12},
		{"l1-only-prefetch", hierConfig{l1: tableIVL1D, degree: 4, tableSize: 64}, 6},
		// 2 sets of 2 ways: a degree-8 sweep evicts lines it just fetched.
		{"two-set-self-evicting-sweep", hierConfig{
			l1:     CacheConfig{Name: "l1", Size: 256, Ways: 2, LineSize: 64},
			l2:     CacheConfig{Name: "l2", Size: 1024, Ways: 4, LineSize: 64, HitLatency: 10 * sim.Nanosecond},
			degree: 8, tableSize: 64}, 4},
		// 12 ways over 64-line chunks: sets straddle chunk boundaries.
		{"twelve-way-straddling-chunks", hierConfig{
			l1:     CacheConfig{Name: "l1", Size: 16 * 12 * 64, Ways: 12, LineSize: 64},
			l2:     tableIVL2,
			degree: 4, tableSize: 64}, 8},
		// One fully associative set spanning two chunks.
		{"fully-associative-two-chunks", hierConfig{
			l1:     CacheConfig{Name: "l1", Size: 128 * 64, Ways: 128, LineSize: 64},
			degree: 8, tableSize: 64}, 6},
		// More pcs than table entries: entries churn as AES's rounds do.
		{"pc-churn", hierConfig{l1: CacheConfig{Name: "l1", Size: 1024, Ways: 2, LineSize: 64}, degree: 2, tableSize: 4}, 16},
		{"table-size-one", hierConfig{l1: CacheConfig{Name: "l1", Size: 2048, Ways: 4, LineSize: 32}, degree: 3, tableSize: 1}, 3},
		{"single-pc-stream", hierConfig{l1: tableIVL1D, l2: tableIVL2, degree: 8, tableSize: 64}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				seq := genAccesses(rand.New(rand.NewSource(seed)), 20000, tc.pcs)
				checkAgainstOracle(t, tc.hc, seq)
			}
		})
	}
}

func checkAgainstOracle(t *testing.T, hc hierConfig, seq []access) {
	t.Helper()
	got, want := newHierarchy(hc), newRefHierarchy(hc)
	for i, a := range seq {
		g := got.access(a.at, a.addr, a.size, a.write, a.pc)
		w := want.access(a.at, a.addr, a.size, a.write, a.pc)
		if g != w {
			t.Fatalf("access %d %+v: done %v, oracle %v", i, a, g, w)
		}
		g1, g2, gp := got.stats()
		w1, w2, wp := want.stats()
		if g1 != w1 || g2 != w2 || gp != wp {
			t.Fatalf("access %d %+v: stats\nL1 %+v\nL2 %+v\npf %+v\noracle\nL1 %+v\nL2 %+v\npf %+v", i, a, g1, g2, gp, w1, w2, wp)
		}
	}
	if g, w := got.dram.Client("core0"), want.dram.Client("core0"); g != w {
		t.Fatalf("DRAM client %+v, oracle %+v", g, w)
	}
	for _, a := range seq {
		for _, addr := range []uint32{a.addr, a.addr + uint32(a.size) - 1} {
			if got.l1.contains(addr) != want.l1.contains(addr) {
				t.Fatalf("L1 residency of %#x differs from the oracle", addr)
			}
			if got.l2 != nil && got.l2.contains(addr) != want.l2.contains(addr) {
				t.Fatalf("L2 residency of %#x differs from the oracle", addr)
			}
		}
	}
}

// TestPrefetcherSkipsRepeatSweep pins the sweep memo: a pc that keeps
// walking inside one resident line repeats the same all-present sweep, so
// its entry records that sweep at the cache's current fill count, and the
// skipped sweeps leave every counter equal to the oracle's.
func TestPrefetcherSkipsRepeatSweep(t *testing.T) {
	hc := hierConfig{l1: tableIVL1D, degree: 4, tableSize: 64}
	var seq []access
	for i := 0; i < 64; i++ {
		seq = append(seq, access{at: sim.Time(i) * sim.Microsecond, addr: DRAMBase + uint32(i)*4, size: 4, pc: 8})
	}
	checkAgainstOracle(t, hc, seq)

	h := newHierarchy(hc)
	for _, a := range seq[:48] {
		h.access(a.at, a.addr, a.size, a.write, a.pc)
	}
	c := h.l1.(*Cache)
	e := &c.prefetcher.table[0]
	if e.sweptDir != 1 || e.sweptBase != DRAMBase+0x80 || e.sweptFills != c.fills {
		t.Fatalf("sweep memo = base %#x dir %d fills %d, want base %#x dir 1 fills %d",
			e.sweptBase, e.sweptDir, e.sweptFills, DRAMBase+0x80, c.fills)
	}
}
