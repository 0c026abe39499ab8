package ssd

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"assasin/internal/asm"
	"assasin/internal/cpu"
	"assasin/internal/memhier"
	"assasin/internal/sim"
)

func TestArchTextRoundTrip(t *testing.T) {
	for _, a := range AllArchs() {
		txt, err := a.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Arch
		if err := back.UnmarshalText(txt); err != nil {
			t.Fatalf("%s: %v", txt, err)
		}
		if back != a {
			t.Fatalf("round trip %v -> %s -> %v", a, txt, back)
		}
	}
	var bad Arch
	if err := bad.UnmarshalText([]byte("NotAnArch")); err == nil {
		t.Fatal("unknown architecture accepted")
	}
}

// Arch-keyed maps are what the -json output serializes; keys must be the
// configuration names, not integers.
func TestArchJSONMapKeys(t *testing.T) {
	b, err := json.Marshal(map[Arch]float64{AssasinSbCache: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"AssasinSb$":1.5}` {
		t.Fatalf("map marshals as %s", b)
	}
	var back map[Arch]float64
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back[AssasinSbCache] != 1.5 {
		t.Fatalf("unmarshal lost the key: %v", back)
	}
}

// TestArchSpecConformance builds a one-core SSD of every configuration, with
// and without the Fig 20 timing adjustment, and checks that the core and its
// memory system are exactly what the configuration's table row says.
func TestArchSpecConformance(t *testing.T) {
	for _, a := range AllArchs() {
		for _, adjusted := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/adjusted=%v", a, adjusted), func(t *testing.T) {
				sp := a.spec()
				s := New(Options{Arch: a, Cores: 1, TimingAdjusted: adjusted})
				ccfg, sys := s.Cores[0].Config(), s.Systems[0]

				period, spCycles := sim.Nanosecond, sp.spCycles
				if adjusted {
					if sp.adjPeriod > 0 {
						period = sp.adjPeriod
					}
					spCycles = sp.adjSpCycles
				}
				if ccfg.Clock.Period != period || sys.Clock.Period != period {
					t.Errorf("clock: core %v, memory %v, want %v", ccfg.Clock.Period, sys.Clock.Period, period)
				}
				if ccfg.BranchFree != sp.branchFree {
					t.Errorf("BranchFree = %v, want %v", ccfg.BranchFree, sp.branchFree)
				}

				switch {
				case sp.spBytes == 0 && sys.Scratchpad != nil:
					t.Errorf("unexpected %d-byte scratchpad", sys.Scratchpad.Size())
				case sp.spBytes > 0 && sys.Scratchpad == nil:
					t.Error("scratchpad missing")
				case sp.spBytes > 0:
					if got := sys.Scratchpad.Size(); got != sp.spBytes {
						t.Errorf("scratchpad = %d bytes, want %d", got, sp.spBytes)
					}
					if got := sys.Scratchpad.AccessCycles; got != spCycles {
						t.Errorf("scratchpad cycles = %d, want %d", got, spCycles)
					}
				}

				checkCaches(t, sys.L1, sp)
				if len(sys.Streams.In) != defaultStreamSlots || len(sys.Streams.Out) != defaultStreamSlots {
					t.Errorf("stream slots = %d in, %d out, want %d", len(sys.Streams.In), len(sys.Streams.Out), defaultStreamSlots)
				}
				ps := s.Flash.PageSize
				if got := sys.Streams.In[0].WindowBytes(); got != sp.windowPages*ps {
					t.Errorf("input window = %d bytes, want %d", got, sp.windowPages*ps)
				}
				if got := sys.Streams.Out[0].WindowBytes(); got != sp.outWindowPages*ps {
					t.Errorf("output window = %d bytes, want %d", got, sp.outWindowPages*ps)
				}

				if got := s.DataPath(); got != sp.path {
					t.Errorf("DataPath = %v, want %v", got, sp.path)
				}
				bp := s.BuildParamsFor()
				if bp.Style != sp.style || StyleFor(a) != sp.style {
					t.Errorf("Style = %v, want %v", bp.Style, sp.style)
				}
				if bp.StateBase != sp.stateBase() || StateBaseFor(a) != sp.stateBase() {
					t.Errorf("StateBase = %#x, want %#x", bp.StateBase, sp.stateBase())
				}
			})
		}
	}
}

// checkCaches checks the L1D, the level it misses to, and its prefetcher
// against the row.
func checkCaches(t *testing.T, l1 *memhier.Cache, sp *archSpec) {
	t.Helper()
	if sp.l1d.Size == 0 {
		if l1 != nil {
			t.Errorf("unexpected L1D %+v", l1.Config())
		}
		return
	}
	if l1 == nil {
		t.Fatal("L1D missing")
	}
	if l1.Config() != sp.l1d {
		t.Errorf("L1D = %+v, want %+v", l1.Config(), sp.l1d)
	}
	next := l1.Next()
	if sp.l2.Size > 0 {
		l2, ok := next.(*memhier.Cache)
		if !ok {
			t.Fatalf("L1D misses to %T, want the L2", next)
		}
		if l2.Config() != sp.l2 {
			t.Errorf("L2 = %+v, want %+v", l2.Config(), sp.l2)
		}
		next = l2.Next()
	}
	if _, ok := next.(memhier.DRAMLevel); !ok {
		t.Errorf("last cache level misses to %T, want DRAM", next)
	}
	pf := l1.Prefetcher()
	switch {
	case sp.prefetchDegree == 0 && pf != nil:
		t.Error("unexpected prefetcher")
	case sp.prefetchDegree > 0 && (pf == nil || pf.Degree != sp.prefetchDegree):
		t.Errorf("prefetcher = %+v, want degree %d", pf, sp.prefetchDegree)
	}
}

// TestAssasinSbCoreGeometry pins the AssasinSb core to the paper's numbers:
// a 64 KiB scratchpad, eight input and eight output stream slots, no L1D.
func TestAssasinSbCoreGeometry(t *testing.T) {
	sys := New(Options{Arch: AssasinSb, Cores: 1}).Systems[0]
	if sys.Scratchpad == nil || sys.Scratchpad.Size() != 64<<10 {
		t.Fatal("scratchpad missing or wrong size")
	}
	if len(sys.Streams.In) != 8 || len(sys.Streams.Out) != 8 {
		t.Fatalf("stream slots = %d in, %d out, want 8 and 8", len(sys.Streams.In), len(sys.Streams.Out))
	}
	if sys.L1 != nil {
		t.Fatal("AssasinSb core should have no L1D")
	}
}

// TestAssasinSbCacheL1D checks that AssasinSb$ adds a 32 KiB 8-way L1D that
// misses straight to DRAM.
func TestAssasinSbCacheL1D(t *testing.T) {
	sys := New(Options{Arch: AssasinSbCache, Cores: 1}).Systems[0]
	if sys.L1 == nil {
		t.Fatal("L1D missing")
	}
	if cfg := sys.L1.Config(); cfg.Size != 32<<10 || cfg.Ways != 8 {
		t.Fatalf("L1D = %+v, want 32 KiB 8-way", cfg)
	}
	if _, ok := sys.L1.Next().(memhier.DRAMLevel); !ok {
		t.Fatalf("L1D misses to %T, want DRAM", sys.L1.Next())
	}
}

// TestCoreClockDefaults checks the 1 GHz default clock and the 0.89 ns
// clock the streambuffer's timing adjustment gives, on core and memory alike.
func TestCoreClockDefaults(t *testing.T) {
	for _, tc := range []struct {
		adjusted bool
		want     sim.Time
	}{{false, sim.Nanosecond}, {true, 890 * sim.Picosecond}} {
		s := New(Options{Arch: AssasinSb, Cores: 1, TimingAdjusted: tc.adjusted})
		if got := s.Cores[0].Config().Clock.Period; got != tc.want {
			t.Errorf("adjusted=%v: core clock %v, want %v", tc.adjusted, got, tc.want)
		}
		if got := s.Systems[0].Clock.Period; got != tc.want {
			t.Errorf("adjusted=%v: memory clock %v, want %v", tc.adjusted, got, tc.want)
		}
	}
}

// TestStreamCoreSumsStream drives one AssasinSb core end to end through the
// stream ISA: a StreamLoad loop sums a closed three-word input stream.
func TestStreamCoreSumsStream(t *testing.T) {
	s := New(Options{Arch: AssasinSb, Cores: 1})
	b := asm.New()
	loop := b.Here()
	b.StreamLoad(asm.A0, 0, 4)
	b.Add(asm.S0, asm.S0, asm.A0)
	b.J(loop)
	c := s.Cores[0]
	c.LoadProgram(cpu.Translate(b.MustBuild()))

	in := s.Systems[0].Streams.In[0]
	in.Push([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, 0)
	in.Close()
	for i := 0; i < 1000; i++ {
		if _, st, _ := c.Run(sim.MaxTime); st == sim.StateDone {
			break
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if got := c.Reg(asm.S0); got != 6 {
		t.Fatalf("sum = %d, want 6", got)
	}
}

// TestParseArch checks the case-insensitive lookup the CLIs share with
// UnmarshalText, and that its error lists every valid name.
func TestParseArch(t *testing.T) {
	for _, a := range AllArchs() {
		for _, name := range []string{a.String(), strings.ToLower(a.String()), strings.ToUpper(a.String())} {
			if got, err := ParseArch(name); err != nil || got != a {
				t.Errorf("ParseArch(%q) = %v, %v; want %v", name, got, err, a)
			}
		}
	}
	_, err := ParseArch("bogus")
	if err == nil || !strings.Contains(err.Error(), "(valid: "+ArchNames()+")") {
		t.Fatalf("ParseArch(bogus) error = %v", err)
	}
	if want := "Baseline, UDP, Prefetch, AssasinSp, AssasinSb, AssasinSb$"; ArchNames() != want {
		t.Errorf("ArchNames() = %q, want %q", ArchNames(), want)
	}
}
