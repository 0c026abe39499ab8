package cpu

import (
	"testing"

	"assasin/internal/asm"
	"assasin/internal/memhier"
	"assasin/internal/sim"
)

// BenchmarkInterpreterALU measures raw interpretation speed — the quantity
// that bounds how much simulated work the experiments can afford.
func BenchmarkInterpreterALU(b *testing.B) {
	bb := asm.New()
	bb.Li(asm.T1, 1<<30)
	loop := bb.Here()
	bb.Addi(asm.T0, asm.T0, 1)
	bb.Xor(asm.T2, asm.T2, asm.T0)
	bb.Slli(asm.T3, asm.T0, 3)
	bb.Add(asm.T2, asm.T2, asm.T3)
	bb.Bltu(asm.T0, asm.T1, loop)
	bb.Halt()
	prog := bb.MustBuild()
	c := New(DefaultConfig("bench"), newTestSystem())
	c.LoadProgram(Translate(prog))
	b.ResetTimer()
	total := int64(0)
	for total < int64(b.N) {
		c.Run(c.LocalTime() + 100*sim.Microsecond)
		total += 100_000
	}
	b.ReportMetric(float64(c.Stats().Instructions)/float64(b.Elapsed().Seconds())/1e6, "Minstr/s")
}

// BenchmarkCoreStepALU measures the per-instruction dispatch cost of the
// interpreter's hot loop (one op per iteration, allocation-free) in each
// execution mode.
func BenchmarkCoreStepALU(b *testing.B) {
	bb := asm.New()
	loop := bb.Here()
	bb.Addi(asm.T0, asm.T0, 1)
	bb.Xor(asm.T2, asm.T2, asm.T0)
	bb.Slli(asm.T3, asm.T0, 3)
	bb.Add(asm.T2, asm.T2, asm.T3)
	bb.J(loop)
	prog := bb.MustBuild()
	for _, mode := range []ExecMode{ExecCompiled, ExecPrecise} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := DefaultConfig("bench")
			cfg.BranchFree = true // keep the loop pure dispatch: no flush cycles
			cfg.MaxInstructions = 1 << 62
			cfg.Exec = mode
			c := New(cfg, newTestSystem())
			c.LoadProgram(Translate(prog))
			b.ReportAllocs()
			b.ResetTimer()
			for c.Stats().Instructions < int64(b.N) {
				c.Run(c.LocalTime() + 100*sim.Microsecond)
			}
			if c.Err() != nil {
				b.Fatal(c.Err())
			}
		})
	}
}

// BenchmarkCoreALUBlock compares the compiled engine's whole-run ALU
// blocks against precise per-instruction stepping on the same straight-line
// ALU loop (the Stats the two modes produce are byte-identical; see
// internal/experiments' equivalence soak).
func BenchmarkCoreALUBlock(b *testing.B) {
	build := func() *asm.Program {
		bb := asm.New()
		loop := bb.Here()
		bb.Addi(asm.T0, asm.T0, 1)
		bb.Xor(asm.T2, asm.T2, asm.T0)
		bb.Slli(asm.T3, asm.T0, 3)
		bb.Add(asm.T2, asm.T2, asm.T3)
		bb.Addi(asm.T4, asm.T2, 7)
		bb.And(asm.T5, asm.T4, asm.T0)
		bb.Or(asm.T6, asm.T5, asm.T2)
		bb.Sub(asm.S0, asm.T6, asm.T0)
		bb.J(loop)
		return bb.MustBuild()
	}
	for _, mode := range []ExecMode{ExecCompiled, ExecPrecise} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := DefaultConfig("bench")
			cfg.BranchFree = true
			cfg.MaxInstructions = 1 << 62
			cfg.Exec = mode
			c := New(cfg, newTestSystem())
			c.LoadProgram(Translate(build()))
			b.ReportAllocs()
			b.ResetTimer()
			for c.Stats().Instructions < int64(b.N) {
				c.Run(c.LocalTime() + 100*sim.Microsecond)
			}
			if c.Err() != nil {
				b.Fatal(c.Err())
			}
		})
	}
}

// BenchmarkCoreCompiledBlock exercises the flat loop-body driver, which
// runs every recognized loop: each iteration dispatches one ALU-run element
// and the conditional back-edge branch — the cost profile of real
// stream-kernel bodies with data-dependent control flow.
func BenchmarkCoreCompiledBlock(b *testing.B) {
	bb := asm.New()
	bb.Li(asm.T1, 1<<30)
	loop := bb.Here()
	bb.Addi(asm.T0, asm.T0, 1)
	bb.Xor(asm.T2, asm.T2, asm.T0)
	bb.Slli(asm.T3, asm.T0, 3)
	bb.Add(asm.T2, asm.T2, asm.T3)
	bb.Bltu(asm.T0, asm.T1, loop)
	bb.Halt()
	prog := bb.MustBuild()
	for _, mode := range []ExecMode{ExecCompiled, ExecPrecise} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := DefaultConfig("bench")
			cfg.BranchFree = true
			cfg.MaxInstructions = 1 << 62
			cfg.Exec = mode
			c := New(cfg, newTestSystem())
			c.LoadProgram(Translate(prog))
			b.ReportAllocs()
			b.ResetTimer()
			for c.Stats().Instructions < int64(b.N) {
				c.Run(c.LocalTime() + 100*sim.Microsecond)
			}
			if c.Err() != nil {
				b.Fatal(c.Err())
			}
		})
	}
}

// BenchmarkCoreLongBody runs a loop whose body (about 1,200 instructions
// of scratchpad loads, multiplies and ALU ops, like the MLP kernel's) takes
// longer than the 1 us Run slice and closes on a conditional back edge, so
// nearly every slice ends, and the next resumes, mid-body. The 256 bytes
// of "weights" the loads read are preloaded, as MLP's are, so the loads
// take the in-prefix scratchpad path.
func BenchmarkCoreLongBody(b *testing.B) {
	bb := asm.New()
	bb.Li(asm.T1, 1<<30)
	bb.Li(asm.S1, int32(memhier.ScratchpadBase))
	loop := bb.Here()
	for r := int32(0); r < 240; r++ {
		bb.Lw(asm.T4, asm.S1, 4*(r%64))
		bb.Mul(asm.T3, asm.T4, asm.T0)
		bb.Add(asm.T2, asm.T2, asm.T3)
		bb.Addi(asm.T0, asm.T0, 1)
		bb.Xor(asm.T5, asm.T5, asm.T2)
	}
	bb.Addi(asm.A1, asm.A1, 1)
	bb.Bltu(asm.A1, asm.T1, loop)
	bb.Halt()
	prog := bb.MustBuild()
	weights := make([]byte, 256)
	for i := range weights {
		weights[i] = byte(i*37 + 11)
	}
	for _, mode := range []ExecMode{ExecCompiled, ExecPrecise} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := DefaultConfig("bench")
			cfg.MaxInstructions = 1 << 62
			cfg.Exec = mode
			sys := newTestSystem()
			if err := sys.Scratchpad.LoadBytes(0, weights); err != nil {
				b.Fatal(err)
			}
			c := New(cfg, sys)
			c.LoadProgram(Translate(prog))
			b.ReportAllocs()
			b.ResetTimer()
			for c.Stats().Instructions < int64(b.N) {
				c.Run(c.LocalTime() + sim.Microsecond)
			}
			if c.Err() != nil {
				b.Fatal(c.Err())
			}
		})
	}
}

// BenchmarkStreamLoadPath measures the stream-ISA fast path end to end in
// each execution mode: firmware-style page pushes feeding a core that
// consumes them one StreamLoad at a time.
func BenchmarkStreamLoadPath(b *testing.B) {
	bb := asm.New()
	loop := bb.Here()
	bb.StreamLoad(asm.A0, 0, 4)
	bb.Add(asm.S0, asm.S0, asm.A0)
	bb.J(loop)
	prog := bb.MustBuild()
	for _, mode := range []ExecMode{ExecCompiled, ExecPrecise} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := DefaultConfig("bench")
			cfg.Exec = mode
			sys := newTestSystem()
			c := New(cfg, sys)
			c.LoadProgram(Translate(prog))
			in := sys.Streams.In[0]
			page := make([]byte, 1024)
			b.SetBytes(1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for !in.CanPush(len(page)) {
					c.Run(c.LocalTime() + sim.Microsecond)
				}
				in.Push(page, 0)
				c.Run(c.LocalTime() + 10*sim.Microsecond)
			}
		})
	}
}

// BenchmarkScratchpadLoadPath measures the compiled engine's scratchpad
// loads and stores in each execution mode on table lookups in the style of
// AES T-tables: every iteration indexes four 1 KiB word tables by the bytes
// of a running state, folds the words in, and stores the state to an
// accumulator word.
func BenchmarkScratchpadLoadPath(b *testing.B) {
	bb := asm.New()
	bb.Li(asm.S1, int32(memhier.ScratchpadBase))
	loop := bb.Here()
	for k := int32(0); k < 4; k++ {
		bb.Srli(asm.T3, asm.T2, 8*k)
		bb.Andi(asm.T3, asm.T3, 0xff)
		bb.Slli(asm.T3, asm.T3, 2)
		bb.Add(asm.T3, asm.T3, asm.S1)
		bb.Lw(asm.T4, asm.T3, 1024*k)
		bb.Xor(asm.T2, asm.T2, asm.T4)
	}
	bb.Addi(asm.T2, asm.T2, 1)
	bb.Sw(asm.T2, asm.S1, 4096)
	bb.J(loop)
	prog := bb.MustBuild()
	tables := make([]byte, 4096)
	for i := range tables {
		tables[i] = byte(i*151 + 7)
	}
	for _, mode := range []ExecMode{ExecCompiled, ExecPrecise} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := DefaultConfig("bench")
			cfg.MaxInstructions = 1 << 62
			cfg.Exec = mode
			sys := newTestSystem()
			if err := sys.Scratchpad.LoadBytes(0, tables); err != nil {
				b.Fatal(err)
			}
			c := New(cfg, sys)
			c.LoadProgram(Translate(prog))
			b.ReportAllocs()
			b.ResetTimer()
			for c.Stats().Instructions < int64(b.N) {
				c.Run(c.LocalTime() + 100*sim.Microsecond)
			}
			if c.Err() != nil {
				b.Fatal(c.Err())
			}
		})
	}
}

// BenchmarkCachedLoadPath measures the cache-hierarchy load path.
func BenchmarkCachedLoadPath(b *testing.B) {
	dram := memhier.NewDRAM(memhier.DefaultDRAMConfig())
	l2 := memhier.NewCache(memhier.CacheConfig{Name: "l2", Size: 256 << 10, Ways: 16, LineSize: 64, HitLatency: 10 * sim.Nanosecond}, memhier.DRAMLevel{DRAM: dram})
	l1 := memhier.NewCache(memhier.CacheConfig{Name: "l1", Size: 32 << 10, Ways: 8, LineSize: 64}, l2)
	sys := &memhier.System{
		Clock:   sim.NewClock(1e9),
		L1:      l1,
		DRAM:    dram,
		Backing: memhier.NewSparseMem(),
		Client:  memhier.DRAMClient{Name: "bench"},
	}
	bb := asm.New()
	bb.Lui(asm.S1, 0x80000)
	bb.Li(asm.T1, 1<<30)
	loop := bb.Here()
	bb.Lw(asm.A0, asm.S1, 0)
	bb.Addi(asm.S1, asm.S1, 4)
	bb.Addi(asm.T0, asm.T0, 1)
	bb.Bltu(asm.T0, asm.T1, loop)
	bb.Halt()
	c := New(DefaultConfig("bench"), sys)
	c.LoadProgram(Translate(bb.MustBuild()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(c.LocalTime() + 10*sim.Microsecond)
	}
	if c.Err() != nil {
		b.Fatal(c.Err())
	}
}

// BenchmarkTranslate prices one Translate (decode, loop analysis and
// threaded code) of a synthetic stream kernel of about 1,000 instructions,
// the size of the AES program: one loop of table-lookup rounds, each a
// stream load, scratchpad loads, ALU ops and a stream store.
func BenchmarkTranslate(b *testing.B) {
	bb := asm.New()
	bb.Li(asm.S1, int32(memhier.ScratchpadBase))
	loop := bb.Here()
	for r := int32(0); r < 100; r++ {
		bb.StreamLoad(asm.A0, 0, 4)
		bb.Lw(asm.T4, asm.S1, 4*(r%64))
		bb.Xor(asm.T2, asm.T4, asm.A0)
		bb.Srli(asm.T3, asm.T2, 8)
		bb.Andi(asm.T3, asm.T3, 0xff)
		bb.Slli(asm.T3, asm.T3, 2)
		bb.Add(asm.T3, asm.T3, asm.S1)
		bb.Lw(asm.T5, asm.T3, 0)
		bb.Xor(asm.S0, asm.S0, asm.T5)
		bb.StreamStore(1, 4, asm.S0)
	}
	bb.J(loop)
	prog := bb.MustBuild()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		translated = Translate(prog)
	}
}

// translated keeps BenchmarkTranslate's result live.
var translated *Program
