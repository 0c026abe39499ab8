package cpu

import (
	"bytes"
	"testing"

	"assasin/internal/asm"
	"assasin/internal/memhier"
	"assasin/internal/sim"
)

func newTestSystem() *memhier.System {
	dram := memhier.NewDRAM(memhier.DefaultDRAMConfig())
	return &memhier.System{
		Clock:      sim.NewClock(1e9),
		Scratchpad: memhier.NewScratchpad(64 << 10),
		DRAM:       dram,
		Backing:    memhier.NewSparseMem(),
		Streams:    memhier.NewStreamBuffer(4, 4, 4, 256),
		Client:     memhier.DRAMClient{Name: "test"},
	}
}

// drainAll drains every buffered byte of out, a page at a time, with the
// space freed at at, and returns them.
func drainAll(out *memhier.OutStream, at sim.Time) []byte {
	var got []byte
	for out.Buffered() > 0 {
		p := out.PeekBytes(out.Buffered())
		got = append(got, p...)
		out.Drain(len(p), at)
	}
	return got
}

// runToHalt drives a standalone core to completion.
func runToHalt(t *testing.T, c *Core) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		_, state, _ := c.Run(sim.MaxTime)
		switch state {
		case sim.StateDone:
			if c.Err() != nil {
				t.Fatalf("core error: %v", c.Err())
			}
			return
		case sim.StateWaiting:
			t.Fatalf("core blocked unexpectedly at pc and no producer")
		}
	}
	t.Fatal("core did not halt")
}

func TestArithmeticProgram(t *testing.T) {
	b := asm.New()
	// sum = 1 + 2 + ... + 10
	b.Li(asm.A0, 0)
	b.Li(asm.T0, 1)
	b.Li(asm.T1, 11)
	loop := b.Here()
	b.Add(asm.A0, asm.A0, asm.T0)
	b.Addi(asm.T0, asm.T0, 1)
	b.Blt(asm.T0, asm.T1, loop)
	b.Halt()
	c := New(DefaultConfig("t"), newTestSystem())
	c.LoadProgram(Translate(b.MustBuild()))
	runToHalt(t, c)
	if got := c.Reg(asm.A0); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
	st := c.Stats()
	if st.Instructions == 0 || st.BusyTime == 0 {
		t.Error("stats not accumulated")
	}
}

func TestALUOperations(t *testing.T) {
	b := asm.New()
	b.Li(asm.T0, -7)
	b.Li(asm.T1, 3)
	b.Mul(asm.A0, asm.T0, asm.T1)  // -21
	b.Div(asm.A1, asm.T0, asm.T1)  // -2
	b.Rem(asm.A2, asm.T0, asm.T1)  // -1
	b.Sra(asm.A3, asm.T0, asm.T1)  // -7>>3 = -1
	b.Srl(asm.A4, asm.T0, asm.T1)  // logical
	b.Sltu(asm.A5, asm.T1, asm.T0) // 3 < 0xFFFFFFF9 unsigned: 1
	b.Slt(asm.A6, asm.T0, asm.T1)  // -7 < 3: 1
	b.Xori(asm.A7, asm.T1, 5)      // 6
	b.Halt()
	c := New(DefaultConfig("t"), newTestSystem())
	c.LoadProgram(Translate(b.MustBuild()))
	runToHalt(t, c)
	neg := func(v int64) uint32 { return uint32(int32(v)) }
	checks := map[asm.Reg]uint32{
		asm.A0: neg(-21),
		asm.A1: neg(-2),
		asm.A2: neg(-1),
		asm.A3: neg(-1),
		asm.A4: uint32(0xFFFFFFF9) >> 3,
		asm.A5: 1,
		asm.A6: 1,
		asm.A7: 6,
	}
	for r, want := range checks {
		if got := c.Reg(r); got != want {
			t.Errorf("reg x%d = %#x, want %#x", r, got, want)
		}
	}
}

func TestDivByZeroSemantics(t *testing.T) {
	b := asm.New()
	b.Li(asm.T0, 42)
	b.Li(asm.T1, 0)
	b.Div(asm.A0, asm.T0, asm.T1)  // -1
	b.Divu(asm.A1, asm.T0, asm.T1) // all ones
	b.Rem(asm.A2, asm.T0, asm.T1)  // dividend
	b.Halt()
	c := New(DefaultConfig("t"), newTestSystem())
	c.LoadProgram(Translate(b.MustBuild()))
	runToHalt(t, c)
	if c.Reg(asm.A0) != ^uint32(0) || c.Reg(asm.A1) != ^uint32(0) || c.Reg(asm.A2) != 42 {
		t.Fatalf("div-by-zero: %#x %#x %d", c.Reg(asm.A0), c.Reg(asm.A1), c.Reg(asm.A2))
	}
}

func TestScratchpadLoadStore(t *testing.T) {
	b := asm.New()
	b.Li(asm.T0, memhier.ScratchpadBase+0x100)
	b.Li(asm.T1, -2)
	b.Sw(asm.T1, asm.T0, 0)
	b.Lhu(asm.A0, asm.T0, 0) // 0xFFFE
	b.Lh(asm.A1, asm.T0, 0)  // sign-extended -2
	b.Lbu(asm.A2, asm.T0, 3) // 0xFF
	b.Lb(asm.A3, asm.T0, 3)  // -1
	b.Halt()
	c := New(DefaultConfig("t"), newTestSystem())
	c.LoadProgram(Translate(b.MustBuild()))
	runToHalt(t, c)
	minus2 := int32(-2)
	if c.Reg(asm.A0) != 0xFFFE || c.Reg(asm.A1) != uint32(minus2) ||
		c.Reg(asm.A2) != 0xFF || c.Reg(asm.A3) != ^uint32(0) {
		t.Fatalf("loads: %#x %#x %#x %#x", c.Reg(asm.A0), c.Reg(asm.A1), c.Reg(asm.A2), c.Reg(asm.A3))
	}
}

func TestJalJalrSubroutine(t *testing.T) {
	b := asm.New()
	sub := b.NewLabel()
	b.Li(asm.A0, 5)
	b.Jal(asm.RA, sub) // call
	b.Addi(asm.A0, asm.A0, 100)
	b.Halt()
	b.Bind(sub)
	b.Addi(asm.A0, asm.A0, 1)
	b.Ret()
	c := New(DefaultConfig("t"), newTestSystem())
	c.LoadProgram(Translate(b.MustBuild()))
	runToHalt(t, c)
	if got := c.Reg(asm.A0); got != 106 {
		t.Fatalf("a0 = %d, want 106", got)
	}
}

func TestX0IsHardwiredZero(t *testing.T) {
	b := asm.New()
	b.Li(asm.T0, 99)
	b.Add(asm.Zero, asm.T0, asm.T0)
	b.Mv(asm.A0, asm.Zero)
	b.Halt()
	c := New(DefaultConfig("t"), newTestSystem())
	c.LoadProgram(Translate(b.MustBuild()))
	runToHalt(t, c)
	if c.Reg(asm.A0) != 0 {
		t.Fatal("x0 written")
	}
}

// TestStreamCopyKernel runs the paper's Listing-1 style loop: stream bytes
// from input 0 to output 0 until end of stream (StreamLoad at EOS halts the
// core, modelling the firmware reset).
func TestStreamCopyKernel(t *testing.T) {
	b := asm.New()
	loop := b.Here()
	b.StreamLoad(asm.A0, 0, 1)
	b.StreamStore(0, 1, asm.A0)
	b.J(loop)
	prog := b.MustBuild()

	sys := newTestSystem()
	data := []byte("hello, assasin stream world")
	sys.Streams.In[0].Push(append([]byte(nil), data...), 0)
	sys.Streams.In[0].Close()

	c := New(DefaultConfig("t"), sys)
	c.LoadProgram(Translate(prog))
	runToHalt(t, c)

	got := drainAll(sys.Streams.Out[0], 0)
	if !bytes.Equal(got, data) {
		t.Fatalf("copied %q, want %q", got, data)
	}
	st := c.Stats()
	if st.StreamInBytes != int64(len(data)) || st.StreamOutBytes != int64(len(data)) {
		t.Fatalf("stream byte counts: in=%d out=%d", st.StreamInBytes, st.StreamOutBytes)
	}
}

// TestBlockedCoreWakesOnPush co-simulates a core with a producer event.
func TestBlockedCoreWakesOnPush(t *testing.T) {
	b := asm.New()
	loop := b.Here()
	b.StreamLoad(asm.A0, 0, 4)
	b.Add(asm.S0, asm.S0, asm.A0)
	b.J(loop)
	prog := b.MustBuild()

	sys := newTestSystem()
	c := New(DefaultConfig("core"), sys)
	c.LoadProgram(Translate(prog))

	sched := sim.NewScheduler()
	sched.Add(c)
	in := sys.Streams.In[0]
	in.OnPush = func(at sim.Time) {
		c.Wake(at)
		sched.Wake(c, at)
	}
	// Producer: two pages arriving late, then EOS.
	sched.Events.Schedule(10*sim.Microsecond, func(now sim.Time) {
		in.Push([]byte{1, 0, 0, 0, 2, 0, 0, 0}, now)
	})
	sched.Events.Schedule(30*sim.Microsecond, func(now sim.Time) {
		in.Push([]byte{3, 0, 0, 0}, now)
		in.Close()
		c.Wake(now)
		sched.Wake(c, now)
	})
	end, err := sched.Run(sim.MaxTime)
	if err != nil {
		t.Fatal(err)
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if got := c.Reg(asm.S0); got != 6 {
		t.Fatalf("sum = %d, want 6", got)
	}
	if end < 30*sim.Microsecond {
		t.Fatalf("finished at %v, before last page", end)
	}
	st := c.Stats()
	if st.StallTime[StallStreamWait] < 25*sim.Microsecond {
		t.Errorf("stream wait stall = %v, want ~30us", st.StallTime[StallStreamWait])
	}
}

func TestTimingALUOneCyclePerInstruction(t *testing.T) {
	b := asm.New()
	for i := 0; i < 100; i++ {
		b.Addi(asm.T0, asm.T0, 1)
	}
	b.Halt()
	c := New(DefaultConfig("t"), newTestSystem())
	c.LoadProgram(Translate(b.MustBuild()))
	runToHalt(t, c)
	// 100 addi + halt = 101 cycles at 1 GHz.
	if got := c.LocalTime(); got != 101*sim.Nanosecond {
		t.Fatalf("local time = %v, want 101ns", got)
	}
}

func TestTimingBranchPenalty(t *testing.T) {
	// Loop of 10 taken branches: each iteration = addi (1) + bne taken (2).
	b := asm.New()
	b.Li(asm.T1, 10)
	loop := b.Here()
	b.Addi(asm.T0, asm.T0, 1)
	b.Bne(asm.T0, asm.T1, loop)
	b.Halt()
	c := New(DefaultConfig("t"), newTestSystem())
	c.LoadProgram(Translate(b.MustBuild()))
	runToHalt(t, c)
	// li(1) + 10*(addi+bne) where 9 taken (2c) + 1 not-taken (1c) + halt
	want := sim.Time(1+10*1+9*2+1*1+1) * sim.Nanosecond
	if got := c.LocalTime(); got != want {
		t.Fatalf("local time = %v, want %v", got, want)
	}
}

func TestBranchFreeUDPTiming(t *testing.T) {
	build := func() *asm.Program {
		b := asm.New()
		b.Li(asm.T1, 50)
		loop := b.Here()
		b.Addi(asm.T0, asm.T0, 1)
		b.Bne(asm.T0, asm.T1, loop)
		b.Halt()
		return b.MustBuild()
	}
	normal := New(DefaultConfig("n"), newTestSystem())
	normal.LoadProgram(Translate(build()))
	runToHalt(t, normal)

	cfg := DefaultConfig("udp")
	cfg.BranchFree = true
	udp := New(cfg, newTestSystem())
	udp.LoadProgram(Translate(build()))
	runToHalt(t, udp)

	if udp.LocalTime() >= normal.LocalTime() {
		t.Fatalf("branch-free not faster: %v vs %v", udp.LocalTime(), normal.LocalTime())
	}
	if udp.Stats().Instructions != normal.Stats().Instructions {
		t.Fatalf("instruction counts differ: %d vs %d", udp.Stats().Instructions, normal.Stats().Instructions)
	}
}

func TestCachedLoadStallAccounting(t *testing.T) {
	dram := memhier.NewDRAM(memhier.DefaultDRAMConfig())
	sys := &memhier.System{
		Clock:   sim.NewClock(1e9),
		L1:      memhier.NewCache(memhier.CacheConfig{Name: "l1", Size: 1024, Ways: 2, LineSize: 64}, memhier.DRAMLevel{DRAM: dram}),
		DRAM:    dram,
		Backing: memhier.NewSparseMem(),
		Client:  memhier.DRAMClient{Name: "c"},
	}
	sys.Backing.Write(memhier.DRAMBase, 4, 7)
	b := asm.New()
	b.Li(asm.T0, 0)
	b.Lui(asm.T0, 0x80000)
	b.Lw(asm.A0, asm.T0, 0)
	b.Halt()
	c := New(DefaultConfig("t"), sys)
	c.LoadProgram(Translate(b.MustBuild()))
	runToHalt(t, c)
	if c.Reg(asm.A0) != 7 {
		t.Fatalf("loaded %d", c.Reg(asm.A0))
	}
	if c.Stats().StallTime[StallMem] < 50*sim.Nanosecond {
		t.Fatalf("DRAM miss stall = %v, want >= 50ns", c.Stats().StallTime[StallMem])
	}
}

func TestInstructionBudgetGuard(t *testing.T) {
	b := asm.New()
	loop := b.Here()
	b.J(loop) // infinite
	cfg := DefaultConfig("t")
	cfg.MaxInstructions = 1000
	c := New(cfg, newTestSystem())
	c.LoadProgram(Translate(b.MustBuild()))
	_, state, _ := c.Run(sim.MaxTime)
	if state != sim.StateDone || c.Err() == nil {
		t.Fatal("runaway program not aborted")
	}
}

func TestStreamEndAndCsr(t *testing.T) {
	b := asm.New()
	b.StreamEnd(asm.A0, 0)
	b.StreamCsrR(asm.A1, 0, 1) // tail
	b.Halt()
	sys := newTestSystem()
	sys.Streams.In[0].Push(make([]byte, 16), 0)
	sys.Streams.In[0].Close()
	c := New(DefaultConfig("t"), sys)
	c.LoadProgram(Translate(b.MustBuild()))
	runToHalt(t, c)
	if c.Reg(asm.A0) != 0 {
		t.Error("EOS with buffered data")
	}
	if c.Reg(asm.A1) != 16 {
		t.Errorf("tail CSR = %d", c.Reg(asm.A1))
	}
}

func TestHaltOnStreamEOS(t *testing.T) {
	b := asm.New()
	loop := b.Here()
	b.StreamLoad(asm.A0, 0, 4)
	b.Addi(asm.S0, asm.S0, 1)
	b.J(loop)
	sys := newTestSystem()
	sys.Streams.In[0].Push(make([]byte, 8), 0)
	sys.Streams.In[0].Close()
	c := New(DefaultConfig("t"), sys)
	c.LoadProgram(Translate(b.MustBuild()))
	runToHalt(t, c)
	if !c.halted {
		t.Fatal("not halted")
	}
	if c.Reg(asm.S0) != 2 {
		t.Fatalf("iterations = %d, want 2", c.Reg(asm.S0))
	}
}

// TestOnHaltCallback requires each engine to fire OnHalt exactly once per
// halt, at the local time the halting Run returns: on a clean halt, at end
// of stream, and on a fault inside and outside a recognized loop (a word
// load from ScratchpadBase on a system with no scratchpad).
func TestOnHaltCallback(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		fault     bool
	}{
		{"halt", "addi a0, a0, 1\nhalt", false},
		{"eos", "loop: streamload a1, s0q, w4\nj loop", false},
		{"fault-in-loop", "li s1, 0x10000000\nloop: lw a0, 0(s1)\naddi a1, a1, 1\nj loop", true},
		{"fault", "li s1, 0x10000000\nlw a0, 0(s1)\nhalt", true},
	} {
		prog, err := asm.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p := Translate(prog)
		for _, mode := range execModes {
			cfg := DefaultConfig("t")
			cfg.Exec = mode
			sys := newTestSystem()
			sys.Scratchpad = nil
			sys.Streams.In[0].Push(make([]byte, 8), 0)
			sys.Streams.In[0].Close()
			c := New(cfg, sys)
			c.LoadProgram(p)
			var fired []sim.Time
			c.OnHalt(func(at sim.Time) { fired = append(fired, at) })
			var local sim.Time
			for i := 0; i < 100 && !c.halted; i++ {
				local, _, _ = c.Run(sim.MaxTime)
			}
			c.Run(sim.MaxTime) // a halted core stays quiet
			if !c.halted || (c.Err() != nil) != tc.fault {
				t.Fatalf("%s/%v: halted=%v err=%v", tc.name, mode, c.halted, c.Err())
			}
			if len(fired) != 1 || fired[0] != local {
				t.Errorf("%s/%v: OnHalt fired at %v, want once at %v", tc.name, mode, fired, local)
			}
		}
	}
}
