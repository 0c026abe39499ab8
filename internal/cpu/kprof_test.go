package cpu

import (
	"bytes"
	"encoding/json"
	"testing"

	"assasin/internal/asm"
	"assasin/internal/sim"
	"assasin/internal/telemetry/kprof"
)

// TestKProfStallKindOrder pins the value identity between cpu.StallKind and
// kprof's stall-class indices that the recording hooks rely on.
func TestKProfStallKindOrder(t *testing.T) {
	pairs := [][2]int{
		{int(StallMem), kprof.StallMem},
		{int(StallStreamWait), kprof.StallStreamWait},
		{int(StallOutFull), kprof.StallOutFull},
		{int(StallExec), kprof.StallExec},
		{int(numStallKinds), kprof.NumStallKinds},
	}
	for _, p := range pairs {
		if p[0] != p[1] {
			t.Fatalf("cpu.StallKind %d != kprof index %d", p[0], p[1])
		}
	}
}

// TestKProfDisabledZeroAlloc proves the profiler hooks cost nothing when no
// profiler is attached: both engines stay allocation-free per Run
// slice (the disabled-kprof half of the zero-cost contract; alloc-gate.sh
// runs this alongside the firmware and reqtrace guards).
func TestKProfDisabledZeroAlloc(t *testing.T) {
	bb := asm.New()
	loop := bb.Here()
	bb.Addi(asm.T0, asm.T0, 1)
	bb.Xor(asm.T2, asm.T2, asm.T0)
	bb.Slli(asm.T3, asm.T0, 3)
	bb.Add(asm.T2, asm.T2, asm.T3)
	bb.J(loop)
	prog := bb.MustBuild()
	for _, mode := range execModes {
		cfg := DefaultConfig("kprof-off-" + mode.String())
		cfg.BranchFree = true
		cfg.MaxInstructions = 1 << 62
		cfg.Exec = mode
		c := New(cfg, newTestSystem())
		// Attach then detach: the detached state must be as cheap as
		// never-attached.
		c.AttachKProf(kprof.New())
		c.AttachKProf(nil)
		c.LoadProgram(prog)
		c.Run(c.LocalTime() + 10*sim.Microsecond) // warm up
		allocs := testing.AllocsPerRun(100, func() {
			c.Run(c.LocalTime() + 10*sim.Microsecond)
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocs per Run slice with kprof detached, want 0", mode, allocs)
		}
		if c.Err() != nil {
			t.Fatalf("%v: %v", mode, c.Err())
		}
	}
}

// TestKProfReconcilesAcrossModes drives the blocking stream loop of
// TestCompiledMatchesPreciseStreamLoop with a profiler attached in every
// mode and demands (a) byte-identical exports (JSON and pprof) across
// Precise/Compiled, and (b) exact reconciliation of the profile's
// totals with the core's Stats: instructions, busy time, and each stall
// class.
func TestKProfReconcilesAcrossModes(t *testing.T) {
	bb := asm.New()
	loop := bb.Here()
	bb.StreamLoad(asm.A0, 0, 4)
	bb.Add(asm.S0, asm.S0, asm.A0)
	bb.Andi(asm.T0, asm.A0, 0xff)
	bb.Mul(asm.T1, asm.T0, asm.A0)
	bb.StreamStore(1, 4, asm.T0)
	bb.J(loop)
	prog := bb.MustBuild()
	prog.Name = "streamsum"

	type outcome struct {
		stats Stats
		js    []byte
		pb    []byte
	}
	results := make(map[ExecMode]outcome)
	for _, mode := range execModes {
		cfg := DefaultConfig("kprof-" + mode.String())
		cfg.Exec = mode
		sys := newTestSystem()
		c := New(cfg, sys)
		profiler := kprof.New()
		c.AttachKProf(profiler)
		c.LoadProgram(prog)
		in := sys.Streams.In[0]
		out := sys.Streams.Out[1]
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
					out.Drain(b, now)
				}
			}
		}
		in.Close()
		for !c.Halted() {
			local, state, _ := c.Run(now + sim.Microsecond)
			now = local
			if b := out.Buffered(); b > 0 {
				out.Drain(b, now)
			}
			if state == sim.StateDone {
				break
			}
		}
		if c.Err() != nil {
			t.Fatalf("%v: %v", mode, c.Err())
		}
		prof := profiler.Snapshot()
		insts, busy, exec, stream, outFull, mem := prof.Totals()
		st := c.Stats()
		if insts != st.Instructions {
			t.Errorf("%v: profile insts %d != stats %d", mode, insts, st.Instructions)
		}
		if busy != int64(st.BusyTime) {
			t.Errorf("%v: profile busy %d != stats %d", mode, busy, int64(st.BusyTime))
		}
		wantStalls := [numStallKinds]int64{
			StallMem:        mem,
			StallStreamWait: stream,
			StallOutFull:    outFull,
			StallExec:       exec,
		}
		for k := StallKind(0); k < numStallKinds; k++ {
			if wantStalls[k] != int64(st.StallTime[k]) {
				t.Errorf("%v: profile stall[%v] %d != stats %d",
					mode, k, wantStalls[k], int64(st.StallTime[k]))
			}
		}
		js, err := json.Marshal(prof)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := prof.Pprof()
		if err != nil {
			t.Fatal(err)
		}
		results[mode] = outcome{stats: st, js: js, pb: pb}
	}
	ref, got := results[ExecPrecise], results[ExecCompiled]
	if !bytes.Equal(got.js, ref.js) {
		t.Errorf("compiled profile JSON diverges from precise:\nprecise: %s\ncompiled: %s", ref.js, got.js)
	}
	if !bytes.Equal(got.pb, ref.pb) {
		t.Errorf("compiled pprof bytes diverge from precise")
	}
}
