package cpu

import (
	"reflect"
	"testing"

	"assasin/internal/asm"
	"assasin/internal/sim"
)

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
		c.AttachKProf(new(Profiler))
		c.AttachKProf(nil)
		c.LoadProgram(Translate(prog))
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

// resolvedCounts is one program's per-pc profile with the compiled
// engine's bulk difference array folded in, the form package kprof
// exports.
type resolvedCounts struct {
	insts, busy []int64
	stall       [NumStallKinds][]int64
}

func resolve(cp *CoreProfile) resolvedCounts {
	r := resolvedCounts{insts: make([]int64, len(cp.Retired)), busy: make([]int64, len(cp.Retired)), stall: cp.StallPs}
	var run int64
	for pc := range cp.Retired {
		run += cp.Bulk[pc]
		r.insts[pc] = cp.Retired[pc] + run
		r.busy[pc] = cp.BusyPs[pc] + run*int64(cp.Period)
	}
	return r
}

// TestKProfReconcilesAcrossModes drives the blocking stream loop of
// TestCompiledMatchesPreciseStreamLoop with a profiler attached in every
// mode and demands (a) identical resolved per-pc counters across
// Precise/Compiled, and (b) exact reconciliation of the profile's totals
// with the core's Stats: instructions and the time of every class.
// TestKProfReconciliationSoak (internal/experiments) checks the exported
// JSON and pprof bytes across modes.
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
		stats  Stats
		counts resolvedCounts
	}
	results := make(map[ExecMode]outcome)
	for _, mode := range execModes {
		cfg := DefaultConfig("kprof-" + mode.String())
		cfg.Exec = mode
		sys := newTestSystem()
		c := New(cfg, sys)
		profiler := new(Profiler)
		c.AttachKProf(profiler)
		c.LoadProgram(Translate(prog))
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
		progs := profiler.Programs()
		if len(progs) != 1 {
			t.Fatalf("%v: %d recorded programs, want 1", mode, len(progs))
		}
		counts := resolve(progs[0])
		st := c.Stats()
		var insts int64
		var classes [NumClasses]int64
		for pc := range counts.insts {
			insts += counts.insts[pc]
			classes[0] += counts.busy[pc]
			for k := range counts.stall {
				classes[1+k] += counts.stall[k][pc]
			}
		}
		if insts != st.Instructions {
			t.Errorf("%v: profile insts %d != stats %d", mode, insts, st.Instructions)
		}
		if want := st.ClassTimes(); classes != want {
			t.Errorf("%v: profile class times %v != stats %v", mode, classes, want)
		}
		results[mode] = outcome{stats: st, counts: counts}
	}
	ref, got := results[ExecPrecise], results[ExecCompiled]
	if !reflect.DeepEqual(got.counts, ref.counts) {
		t.Errorf("compiled per-pc profile diverges from precise:\nprecise: %+v\ncompiled: %+v", ref.counts, got.counts)
	}
}
