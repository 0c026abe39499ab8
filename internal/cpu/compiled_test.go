package cpu

import (
	"reflect"
	"sync"
	"testing"

	"assasin/internal/asm"
	"assasin/internal/memhier"
	"assasin/internal/sim"
)

// execModes lists both interpreter strategies, reference first.
var execModes = []ExecMode{ExecPrecise, ExecCompiled}

// TestCoreZeroAllocPerStep proves the per-step hot path allocates nothing in
// any execution mode with telemetry disabled — the compiled engine's
// closures are all built by Translate, so steady-state dispatch must stay
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
		c.LoadProgram(Translate(prog))
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
		c.LoadProgram(Translate(prog))
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
				if out.Buffered() > 128 {
					collected = append(collected, drainAll(out, now)...)
				}
			}
		}
		in.Close()
		for !c.halted {
			local, state, _ := c.Run(now + sim.Microsecond)
			now = local
			collected = append(collected, drainAll(out, now)...)
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
			halted: c.halted,
			out:    collected,
		}
	}
	if ref, got := results[ExecPrecise], results[ExecCompiled]; !reflect.DeepEqual(got, ref) {
		t.Errorf("compiled diverges from precise:\nprecise: %+v\ncompiled: %+v", ref, got)
	}
}

// slicedOutcome is everything observable about a run driven by runSliced,
// including the pc at every Run-slice boundary.
type slicedOutcome struct {
	regs   [32]uint32
	stats  Stats
	at     sim.Time
	halted bool
	err    error
	exits  []int
}

// TestMissingStreamSlotInLoop runs recognized loops whose StreamEnd or
// StreamCsrR names a slot the system lacks (the assembler accepts s0-s15):
// both engines must halt with the precise engine's error.
func TestMissingStreamSlotInLoop(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"loop: streamload a1, s0q, w4\nstreamend t0, s9\nstreamstore s0q, w4, a1\nj loop",
			"memhier: no input stream slot 9"},
		{"loop: streamload a1, s0q, w4\nstreamcsrr t0, s12, csr1\nstreamstore s0q, w4, a1\nj loop",
			"memhier: no input stream slot 12"},
	} {
		prog, err := asm.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		p := Translate(prog)
		if p.loops[0] == nil {
			t.Fatalf("%q: loop not recognized", tc.src)
		}
		for _, mode := range execModes {
			cfg := DefaultConfig("slot")
			cfg.Exec = mode
			sys := newTestSystem()
			sys.Streams.In[0].Push(make([]byte, 16), 0)
			c := New(cfg, sys)
			c.LoadProgram(p)
			if _, state, _ := c.Run(sim.MaxTime); state != sim.StateDone || c.Err() == nil || c.Err().Error() != tc.want {
				t.Errorf("%v on %q: state %v, err %v; want %q", mode, tc.src, state, c.Err(), tc.want)
			}
		}
	}
}

// streamPush delivers data to input slot 0, usable from at.
type streamPush struct {
	at   sim.Time
	data []byte
}

// runSliced runs prog in mode through Run slices whose lengths cycle
// through quanta. Each push lands (with a wake) once a slice limit reaches
// its time, and slot 0 closes after the last one. Every engine must stop
// at the same pcs, so the outcome includes the pc after each slice.
func runSliced(t *testing.T, prog *Program, mode ExecMode, quanta []sim.Time, pushes []streamPush) (slicedOutcome, *Core) {
	t.Helper()
	cfg := DefaultConfig("sliced")
	cfg.Exec = mode
	sys := newTestSystem()
	c := New(cfg, sys)
	c.LoadProgram(prog)
	in := sys.Streams.In[0]
	var o slicedOutcome
	limit := sim.Time(0)
	for k := 0; k < 100_000 && !c.halted; k++ {
		limit += quanta[k%len(quanta)]
		for len(pushes) > 0 && pushes[0].at <= limit {
			if err := in.Push(pushes[0].data, pushes[0].at); err != nil {
				t.Fatal(err)
			}
			c.Wake(pushes[0].at)
			pushes = pushes[1:]
		}
		if len(pushes) == 0 {
			in.Close()
		}
		c.Run(limit)
		o.exits = append(o.exits, c.pc)
	}
	if !c.halted {
		t.Fatalf("%v: core did not halt", mode)
	}
	o.regs, o.stats, o.at, o.halted, o.err = c.regs, c.stats, c.at, c.halted, c.err
	return o, c
}

// checkSliced translates prog once, runs it in both engines, requires
// identical outcomes, and requires the compiled engine to step nothing
// inside a recognized loop body. It returns the compiled run for further
// checks.
func checkSliced(t *testing.T, prog *asm.Program, quanta []sim.Time, pushes []streamPush) (slicedOutcome, *Core) {
	t.Helper()
	p := Translate(prog)
	ref, _ := runSliced(t, p, ExecPrecise, quanta, pushes)
	got, c := runSliced(t, p, ExecCompiled, quanta, pushes)
	if ref.err != nil {
		t.Fatalf("precise: %v", ref.err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("compiled diverges from precise:\nprecise: %+v\ncompiled: %+v", ref, got)
	}
	outside := int64(0)
	for _, li := range p.loops {
		if li == nil {
			outside++
		}
	}
	if c.stepped > outside {
		t.Errorf("compiled engine stepped %d instructions, but only %d lie outside a recognized loop body", c.stepped, outside)
	}
	return got, c
}

// pcQuanta are Run-slice lengths that cut a loop body at shifting offsets.
var pcQuanta = []sim.Time{
	1 * sim.Nanosecond, 7 * sim.Nanosecond, 1 * sim.Nanosecond,
	11 * sim.Nanosecond, 3 * sim.Nanosecond, 1 * sim.Nanosecond,
	13 * sim.Nanosecond, 1 * sim.Nanosecond, 5 * sim.Nanosecond,
}

// TestCompiledResumesLongBody runs a loop whose body outlasts every Run
// slice and closes on a conditional back edge, so each slice ends inside
// the body. The compiled engine must resume the body at every offset
// without falling back to stepping, and stop exactly where precise does.
func TestCompiledResumesLongBody(t *testing.T) {
	bb := asm.New()
	bb.Li(asm.T1, 24)
	bb.Li(asm.S1, int32(memhier.ScratchpadBase))
	loop := bb.Here()
	bb.Addi(asm.A1, asm.A1, 1)
	for r := int32(0); r < 3; r++ {
		bb.Addi(asm.T0, asm.T0, 3)
		bb.Xor(asm.T2, asm.T2, asm.T0)
		bb.Mul(asm.T3, asm.T2, asm.T0)
		bb.Sw(asm.T3, asm.S1, 4*r)
		bb.Lw(asm.T4, asm.S1, 4*r)
		bb.Divu(asm.T5, asm.T4, asm.T1)
		bb.Andi(asm.T6, asm.A1, 1)
		skip := bb.NewLabel()
		bb.Beq(asm.T6, asm.Zero, skip)
		bb.Add(asm.S0, asm.S0, asm.T5)
		bb.Bind(skip)
		bb.Slli(asm.T6, asm.T4, 1)
		bb.Or(asm.S2, asm.S2, asm.T6)
	}
	bb.Bltu(asm.A1, asm.T1, loop)
	bb.Halt()
	got, c := checkSliced(t, bb.MustBuild(), pcQuanta, nil)

	var li *loopInfo
	for _, l := range c.prog.loops {
		if l != nil {
			li = l
			break
		}
	}
	if li == nil {
		t.Fatal("loop body not recognized")
	}
	seen := map[int]bool{}
	for _, pc := range got.exits {
		seen[pc] = true
	}
	for pc := li.head; pc <= li.end; pc++ {
		if !seen[pc] {
			t.Errorf("no Run slice ended at body pc %d (body %d..%d)", pc, li.head, li.end)
		}
	}
}

// recordAdvProgram reads the first word of each 16-byte record through the
// stream view and releases the record with StreamAdv, so inside the loop
// slot 0 is touched only by the Adv.
func recordAdvProgram(length int32) *asm.Program {
	view := int32(memhier.StreamInViewBase)
	bb := asm.New()
	bb.Li(asm.S1, view)
	bb.Li(asm.S3, view+length)
	loop := bb.Here()
	bb.Lw(asm.T0, asm.S1, 0)
	bb.Add(asm.S0, asm.S0, asm.T0)
	bb.StreamAdv(0, 16)
	bb.Addi(asm.S1, asm.S1, 16)
	bb.Bltu(asm.S1, asm.S3, loop)
	bb.Halt()
	return bb.MustBuild()
}

// patterned returns n bytes of a fixed pattern.
func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*13)
	}
	return b
}

// TestCompiledAdvOnlyShortStream is the software-paged read loop of the
// kernels' soft lowering (view loads, a page release behind a branch) on a
// stream shorter than one page. The release never runs, and the loop must
// not be pre-checked as if it did.
func TestCompiledAdvOnlyShortStream(t *testing.T) {
	const page = 256 // newTestSystem's page size
	view := int32(memhier.StreamInViewBase)
	bb := asm.New()
	bb.Li(asm.S1, view)
	bb.Li(asm.S2, view+page)
	bb.Li(asm.S3, view+128)
	loop := bb.Here()
	bb.Lw(asm.T0, asm.S1, 0)
	bb.Add(asm.S0, asm.S0, asm.T0)
	bb.Addi(asm.S1, asm.S1, 4)
	skip := bb.NewLabel()
	bb.Bltu(asm.S1, asm.S2, skip)
	bb.StreamAdv(0, page)
	bb.Addi(asm.S2, asm.S2, page)
	bb.Bind(skip)
	bb.Bltu(asm.S1, asm.S3, loop)
	bb.Halt()
	checkSliced(t, bb.MustBuild(), pcQuanta, []streamPush{{0, patterned(128, 1)}})
}

// TestCompiledAdvClampsAtClose releases 16 bytes per record from a closed
// stream whose length is not a multiple of 16: the last Adv asks for more
// than is buffered and releases the remainder, as System.StreamAdv does.
func TestCompiledAdvClampsAtClose(t *testing.T) {
	_, c := checkSliced(t, recordAdvProgram(100), pcQuanta, []streamPush{{0, patterned(100, 2)}})
	if h := c.sys.Streams.In[0].Head(); h != 100 {
		t.Errorf("Head = %d after the clamped release, want 100", h)
	}
}

// TestCompiledAdvBlocksMidIteration delivers a record's first word before
// the rest of it: the Adv blocks after the iteration's load has run, waits
// for the next push, and then resumes mid-iteration.
func TestCompiledAdvBlocksMidIteration(t *testing.T) {
	data := patterned(132, 3)
	pushes := []streamPush{{0, data[:68]}, {3 * sim.Microsecond, data[68:]}}
	_, c := checkSliced(t, recordAdvProgram(132), pcQuanta, pushes)
	if r := c.Stats().Retries; r == 0 {
		t.Error("the Adv never blocked")
	}
}

// sharedKernel is a stream record loop holding every instruction class
// whose timing comes from the core config: a short warm-up loop closed by a
// conditional back edge, then per record a peek and a load, a multiply, a
// divide, a forward branch taken on odd words, a scratchpad round trip and
// a stream store. It halts at end of stream.
func sharedKernel() *asm.Program {
	bb := asm.New()
	bb.Li(asm.S1, int32(memhier.ScratchpadBase))
	bb.Li(asm.T1, 7)
	warm := bb.Here()
	bb.Addi(asm.A1, asm.A1, 1)
	bb.Xor(asm.S2, asm.S2, asm.A1)
	bb.Bltu(asm.A1, asm.T1, warm)
	loop := bb.Here()
	bb.StreamPeek(asm.A2, 0, 2, 2)
	bb.StreamLoad(asm.A0, 0, 4)
	bb.Mul(asm.T3, asm.A0, asm.A2)
	bb.Divu(asm.T5, asm.T3, asm.T1)
	bb.Andi(asm.T6, asm.A0, 1)
	skip := bb.NewLabel()
	bb.Beq(asm.T6, asm.Zero, skip)
	bb.Add(asm.S0, asm.S0, asm.T5)
	bb.Bind(skip)
	bb.Sw(asm.T3, asm.S1, 0)
	bb.Lw(asm.T4, asm.S1, 0)
	bb.Xor(asm.S2, asm.S2, asm.T4)
	bb.StreamStore(1, 4, asm.S0)
	bb.J(loop)
	return bb.MustBuild()
}

// TestSharedProgramConcurrent translates each program once and runs the one
// Program at the same time, each core on its own goroutine, on compiled and
// precise cores of four timing configs (branch penalties, BranchFree,
// mul/div cycles, clock period). Each compiled core must match the precise
// core of its config in Stats, registers, output bytes and local time: the
// translation holds no per-core timing, and (under -race) no core writes to
// it.
func TestSharedProgramConcurrent(t *testing.T) {
	progs := []*asm.Program{sharedKernel()}
	for _, raw := range fuzzSeeds() {
		progs = append(progs, genProgram(raw))
	}
	base := fuzzConfig(ExecPrecise)
	free, slow, fast := base, base, base
	free.BranchFree = true
	slow.MulCycles, slow.DivCycles, slow.BranchTakenPenalty = 1, 35, 3
	fast.Clock, fast.MulCycles, fast.DivCycles, fast.BranchFree = sim.Clock{Period: 890}, 5, 7, true
	cfgs := []Config{base, free, slow, fast}

	outs := make([][][2]fuzzOutcome, len(progs)) // [prog][cfg][mode]
	var wg sync.WaitGroup
	for i, src := range progs {
		p := Translate(src)
		inputs := fuzzInputs([]byte{byte(i)})
		outs[i] = make([][2]fuzzOutcome, len(cfgs))
		for j, cfg := range cfgs {
			for m, mode := range execModes {
				cfg.Exec = mode
				wg.Add(1)
				go func(cfg Config) {
					defer wg.Done()
					outs[i][j][m] = runFuzzProgram(p, cfg, inputs, fuzzSchedule{spCycles: 1})
				}(cfg)
			}
		}
	}
	wg.Wait()
	for i, byCfg := range outs {
		for j, o := range byCfg {
			if ref, got := o[0], o[1]; !reflect.DeepEqual(got, ref) {
				t.Errorf("program %d, config %d: compiled diverges from precise:\nprecise: %+v\ncompiled: %+v", i, j, ref, got)
			}
		}
	}
	// The configs must time the kernel differently, or the check is vacuous.
	seen := map[sim.Time]bool{}
	for _, o := range outs[0] {
		seen[o[0].At] = true
	}
	if len(seen) != len(cfgs) {
		t.Errorf("shared kernel ends at %d distinct times over %d configs", len(seen), len(cfgs))
	}
}
