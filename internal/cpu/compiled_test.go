package cpu

import (
	"reflect"
	"testing"

	"assasin/internal/asm"
	"assasin/internal/sim"
)

// execModes lists both interpreter strategies, reference first.
var execModes = []ExecMode{ExecPrecise, ExecCompiled}

// TestCoreZeroAllocPerStep proves the per-step hot path allocates nothing in
// any execution mode with telemetry disabled — the compiled engine's
// closures are all built at load time, so steady-state dispatch must stay
// allocation-free like the precise interpreter.
func TestCoreZeroAllocPerStep(t *testing.T) {
	bb := asm.New()
	loop := bb.Here()
	bb.Addi(asm.T0, asm.T0, 1)
	bb.Xor(asm.T2, asm.T2, asm.T0)
	bb.Slli(asm.T3, asm.T0, 3)
	bb.Add(asm.T2, asm.T2, asm.T3)
	bb.J(loop)
	prog := bb.MustBuild()
	for _, mode := range execModes {
		cfg := DefaultConfig("alloc-" + mode.String())
		cfg.BranchFree = true
		cfg.MaxInstructions = 1 << 62
		cfg.Exec = mode
		c := New(cfg, newTestSystem())
		c.LoadProgram(prog)
		c.Run(c.LocalTime() + 10*sim.Microsecond) // warm up
		allocs := testing.AllocsPerRun(100, func() {
			c.Run(c.LocalTime() + 10*sim.Microsecond)
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocs per Run slice, want 0", mode, allocs)
		}
		if c.Err() != nil {
			t.Fatalf("%v: %v", mode, c.Err())
		}
	}
}

// TestCompiledMatchesPreciseStreamLoop runs a blocking stream loop — data
// arriving in small pushes, output drained late, small dispatch quanta — in
// both modes and requires identical final registers, Stats, local time
// and output bytes. This covers the block/retry paths (stream-wait and
// out-full) that the whole-experiment soak only reaches through the
// firmware.
func TestCompiledMatchesPreciseStreamLoop(t *testing.T) {
	bb := asm.New()
	loop := bb.Here()
	bb.StreamLoad(asm.A0, 0, 4)
	bb.Add(asm.S0, asm.S0, asm.A0)
	bb.Andi(asm.T0, asm.A0, 0xff)
	bb.StreamStore(1, 4, asm.T0)
	bb.J(loop)
	prog := bb.MustBuild()

	type outcome struct {
		regs   [32]uint32
		stats  Stats
		at     sim.Time
		halted bool
		out    []byte
	}
	results := make(map[ExecMode]outcome)
	for _, mode := range execModes {
		cfg := DefaultConfig("equiv-" + mode.String())
		cfg.Exec = mode
		sys := newTestSystem()
		c := New(cfg, sys)
		c.LoadProgram(prog)
		in := sys.Streams.In[0]
		out := sys.Streams.Out[1]
		var collected []byte
		// Feed 3 small pushes with gaps, draining the output window between
		// dispatch slices so the core alternates between running, stream-wait
		// and out-full blocking.
		pushes := [][]byte{make([]byte, 64), make([]byte, 128), make([]byte, 52)}
		for i := range pushes {
			for j := range pushes[i] {
				pushes[i][j] = byte(i*31 + j*7)
			}
		}
		now := sim.Time(0)
		for i, p := range pushes {
			if err := in.Push(p, now+sim.Time(i)*sim.Microsecond); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 8; k++ {
				local, _, _ := c.Run(now + sim.Time(k+1)*200*sim.Nanosecond)
				now = local
				if b := out.Buffered(); b > 128 {
					collected = append(collected, out.Drain(b, now)...)
				}
			}
		}
		in.Close()
		for !c.Halted() {
			local, state, _ := c.Run(now + sim.Microsecond)
			now = local
			if b := out.Buffered(); b > 0 {
				collected = append(collected, out.Drain(b, now)...)
			}
			if state == sim.StateDone {
				break
			}
		}
		if c.Err() != nil {
			t.Fatalf("%v: %v", mode, c.Err())
		}
		results[mode] = outcome{
			regs:   c.regs,
			stats:  c.Stats(),
			at:     c.LocalTime(),
			halted: c.Halted(),
			out:    collected,
		}
	}
	if ref, got := results[ExecPrecise], results[ExecCompiled]; !reflect.DeepEqual(got, ref) {
		t.Errorf("compiled diverges from precise:\nprecise: %+v\ncompiled: %+v", ref, got)
	}
}
