// Package cpu models the in-order scalar compute engines embedded in the
// simulated computational SSDs: an ISA-level interpreter (functional) with a
// cycle-accounting timing model (performance), in the spirit of a Gem5
// in-order core. One Core executes one assembled kernel program against a
// memhier.System; it implements sim.Process so the SSD scheduler can
// co-simulate many cores with the flash and DRAM world.
package cpu

import (
	"fmt"

	"assasin/internal/asm"
	"assasin/internal/isa"
	"assasin/internal/memhier"
	"assasin/internal/sim"
	"assasin/internal/telemetry"
)

// Config sets a core's timing parameters.
type Config struct {
	Name  string
	Clock sim.Clock
	// MulCycles and DivCycles are the occupancy of M-extension ops (the
	// ibex fast multiplier takes 3 cycles; division is iterative).
	MulCycles int
	DivCycles int
	// BranchTakenPenalty is the pipeline-flush cost of a taken branch or
	// jump, in cycles beyond the issue cycle.
	BranchTakenPenalty int
	// BranchFree models the UDP accelerator's multiway dispatch and fused
	// compare-branch operations: control-flow instructions retire in zero
	// cycles with no taken penalty.
	BranchFree bool
	// MaxInstructions aborts runaway programs (0 = default guard).
	MaxInstructions int64
	// Exec selects the interpreter strategy: ExecCompiled (default) runs
	// the loaded Program's threaded code, ExecPrecise steps its decoded
	// instructions one at a time (the equivalence oracle). Both produce
	// byte-identical timing and results.
	Exec ExecMode
}

// DefaultConfig returns 1 GHz ibex-like timing.
func DefaultConfig(name string) Config {
	return Config{
		Name:               name,
		Clock:              sim.NewClock(1e9),
		MulCycles:          3,
		DivCycles:          20,
		BranchTakenPenalty: 1,
	}
}

// StallKind categorizes where a core's non-busy cycles went (Fig. 5's cycle
// decomposition).
type StallKind int

// Stall categories.
const (
	// StallMem: waiting on the cache/DRAM hierarchy (loads and stores).
	StallMem StallKind = iota
	// StallStreamWait: waiting for stream data to arrive from the flash
	// array (or for availability of staged pages).
	StallStreamWait
	// StallOutFull: waiting for the firmware to drain a full output window.
	StallOutFull
	// StallExec: multi-cycle execution (mul/div) and branch penalties.
	StallExec
	// NumStallKinds is the number of stall kinds.
	NumStallKinds
)

// String returns the kind's class name (ClassNames[1+k]).
func (k StallKind) String() string {
	if k < 0 || k >= NumStallKinds {
		return fmt.Sprintf("stall%d", int(k))
	}
	return ClassNames[1+k]
}

// The Fig 5 cycle classes: every simulated core cycle is issue time or a
// stall of one StallKind. These names are the attribution report's,
// timeline's ("class/<name>" series), class gauges' ("class/<name>_ps") and
// request critical paths' vocabulary.
const (
	// ClassCoreBusy: the core issued an instruction this cycle.
	ClassCoreBusy = "core-busy"
	// ClassCacheDRAMWait (StallMem): loads/stores waiting on the cache
	// hierarchy and SSD DRAM — the paper's in-SSD memory wall.
	ClassCacheDRAMWait = "cache-dram-wait"
	// ClassStreamRefillWait (StallStreamWait): stream reads that outran the
	// flash-to-buffer refill path.
	ClassStreamRefillWait = "stream-refill-wait"
	// ClassOutFullWait (StallOutFull): appends blocked on a full output
	// window awaiting a firmware drain.
	ClassOutFullWait = "out-full-wait"
	// ClassExecStall (StallExec): multi-cycle execution and branch penalties.
	ClassExecStall = "exec-stall"
)

// NumClasses is busy time plus one class per StallKind.
const NumClasses = 1 + int(NumStallKinds)

// ClassNames is the one stall-class table, in canonical order: busy first,
// then StallKind k at index 1+k. Every consumer iterates it (with
// Stats.ClassTimes) instead of naming the classes one by one.
var ClassNames = [NumClasses]string{
	ClassCoreBusy, ClassCacheDRAMWait, ClassStreamRefillWait, ClassOutFullWait, ClassExecStall,
}

// Stats accumulates a core's execution profile.
type Stats struct {
	Instructions int64
	ByClass      [16]int64
	// BusyTime is issue time: one cycle per retired instruction.
	BusyTime sim.Time
	// StallTime is non-issue time by category.
	StallTime [NumStallKinds]sim.Time
	// LoadBytes / StoreBytes / StreamInBytes / StreamOutBytes count data
	// moved by the program.
	LoadBytes, StoreBytes, StreamInBytes, StreamOutBytes int64
	// Retries counts blocked accesses that had to be re-attempted.
	Retries int64
	// Dispatches counts scheduler run slices entered before the program
	// halted. The count is taken inside the shared interpreter entry, so it
	// is identical across Exec modes and data planes (the equivalence soaks
	// compare it); request tracing uses deltas to report per-request
	// dispatch slices.
	Dispatches int64
}

// ClassTimes returns the core's time per class in picoseconds, indexed like
// ClassNames.
func (s *Stats) ClassTimes() (t [NumClasses]int64) {
	t[0] = int64(s.BusyTime)
	for k, st := range s.StallTime {
		t[1+k] = int64(st)
	}
	return t
}

// TotalTime returns busy plus all stall time.
func (s *Stats) TotalTime() sim.Time {
	t := s.BusyTime
	for _, st := range s.StallTime {
		t += st
	}
	return t
}

// decoded is the translated, unpacked form of one instruction. Dispatch
// metadata the interpreter would otherwise recompute on every step — the
// timing class, load/store width and sign extension, the immediate in its
// unsigned reinterpretation — is resolved once per Translate, keeping the
// per-instruction hot path to a class switch over flat fields.
type decoded struct {
	op     isa.Op
	class  isa.Class
	rd     uint8
	rs1    uint8
	rs2    uint8
	stream uint8
	width  uint8
	size   uint8 // load/store access bytes
	signed bool  // sign-extending load
	imm    int32
	uimm   uint32 // imm reinterpreted as uint32 (ALU immediates)
}

// Core is one simulated compute engine.
type Core struct {
	cfg  Config
	sys  *memhier.System
	prog *Program // the loaded translation, shared with other cores
	// stepped counts instructions dispatched through step (every one under
	// ExecPrecise). It is kept out of Stats, which both engines must
	// produce identically.
	stepped int64

	regs   [isa.NumRegs]uint32
	pc     int
	at     sim.Time
	halted bool
	err    error

	// Branch/jump cycle counts resolved from the config once.
	takenCycles    int
	notTakenCycles int
	jumpCycles     int

	blocked      bool
	blockKind    StallKind
	wakeAt       sim.Time
	maxInsts     int64
	stats        Stats
	haltCallback func(at sim.Time)

	// tel, when non-nil, is the core's trace track; Run emits one "exec"
	// span per dispatch slice on it (see AttachTelemetry).
	tel *telemetry.Track

	// kprofiler, when non-nil, is the attached guest-kernel profiler;
	// prof is the per-program recording sink bound at LoadProgram. Every
	// hook sits behind an `if c.prof != nil` guard so a detached core pays
	// only nil-pointer branches (the zero-cost contract, like tel).
	kprofiler *Profiler
	prof      *CoreProfile
}

// New returns a core ready to Load a program.
func New(cfg Config, sys *memhier.System) *Core {
	if cfg.Clock.Period <= 0 {
		cfg.Clock = sim.NewClock(1e9)
	}
	if cfg.MulCycles <= 0 {
		cfg.MulCycles = 3
	}
	if cfg.DivCycles <= 0 {
		cfg.DivCycles = 20
	}
	max := cfg.MaxInstructions
	if max <= 0 {
		max = 20_000_000_000
	}
	c := &Core{cfg: cfg, sys: sys, maxInsts: max}
	if cfg.BranchFree {
		// UDP multiway dispatch folds taken control flow into the preceding
		// operation; fall-through still occupies the dispatch slot.
		c.takenCycles = 0
		c.notTakenCycles = 1
		c.jumpCycles = 0
	} else {
		c.takenCycles = 1 + cfg.BranchTakenPenalty
		c.notTakenCycles = 1
		c.jumpCycles = 1 + cfg.BranchTakenPenalty
	}
	return c
}

// decode unpacks one instruction into its flat dispatch form.
func decode(in isa.Inst) decoded {
	d := decoded{
		op:     in.Op,
		class:  in.Op.Class(),
		rd:     in.Rd,
		rs1:    in.Rs1,
		rs2:    in.Rs2,
		stream: in.Stream,
		width:  in.Width,
		imm:    in.Imm,
		uimm:   uint32(in.Imm),
	}
	switch d.class {
	case isa.ClassLoad:
		size, signed := loadSize(in.Op)
		d.size = uint8(size)
		d.signed = signed
	case isa.ClassStore:
		d.size = uint8(storeSize(in.Op))
	}
	return d
}

// LoadProgram installs the translated kernel and resets architectural
// state. The local clock is preserved (the firmware resets PC and pipeline
// between requests, not time).
func (c *Core) LoadProgram(p *Program) {
	c.prog = p
	if c.kprofiler != nil {
		c.prof = c.kprofiler.ForProgram(p.Src, c.cfg.Clock.Period)
	}
	c.pc = 0
	c.halted = false
	c.err = nil
	c.blocked = false
	c.regs = [isa.NumRegs]uint32{}
}

// SetReg sets an argument register before the program starts.
func (c *Core) SetReg(r asm.Reg, v uint32) { c.regs[r] = v; c.regs[0] = 0 }

// Reg reads a register (for result extraction and tests).
func (c *Core) Reg(r asm.Reg) uint32 { return c.regs[r] }

// Sys returns the core's memory system.
func (c *Core) Sys() *memhier.System { return c.sys }

// Stats returns a copy of the execution profile.
func (c *Core) Stats() Stats { return c.stats }

// SteppedInstructions returns how many instructions went through the
// per-instruction interpreter rather than a translated path: every one
// under ExecPrecise, only the compiled engine's fallbacks otherwise.
func (c *Core) SteppedInstructions() int64 { return c.stepped }

// Err returns the simulation error that halted the core, if any.
func (c *Core) Err() error { return c.err }

// Halted reports whether the program has finished (halt, end-of-stream
// reset, or error).
func (c *Core) Halted() bool { return c.halted }

// LocalTime returns the core's local clock.
func (c *Core) LocalTime() sim.Time { return c.at }

// OnHalt registers a callback fired when the program halts (used by the
// offload engine to close output streams).
func (c *Core) OnHalt(fn func(at sim.Time)) { c.haltCallback = fn }

// Name implements sim.Process.
func (c *Core) Name() string { return c.cfg.Name }

// Config returns the core's timing configuration.
func (c *Core) Config() Config { return c.cfg }

// Wake notifies the core that stream state changed at time t; the scheduler
// wrapper uses wakeAt as the retry hint.
func (c *Core) Wake(t sim.Time) {
	if c.blocked && (c.wakeAt == sim.MaxTime || t < c.wakeAt) {
		c.wakeAt = t
	}
}

// AttachTelemetry gives the core a trace track on sink (nil sink detaches).
// With a track attached, Run emits one "exec" span per dispatch slice
// [entry local time, exit local time) annotated with the instructions
// retired in the slice, plus a "halt" instant when the program finishes.
// Both execution engines share this instrumentation point, and the compiled
// engine's invariant — every Run call returns at the same local-time
// boundary as precise stepping — makes Compiled and Precise traces
// identical at this (block-aligned) granularity.
func (c *Core) AttachTelemetry(sink *telemetry.Sink) {
	if sink == nil {
		c.tel = nil
		return
	}
	c.tel = sink.Track("cpu/" + c.cfg.Name)
}

// AttachKProf gives the core a guest-kernel profiler (nil detaches). The
// per-program recording sink is (re)bound at every LoadProgram, so the
// profiler sees all requests a core serves.
func (c *Core) AttachKProf(p *Profiler) {
	c.kprofiler = p
	if p == nil {
		c.prof = nil
		return
	}
	if c.prog != nil {
		c.prof = p.ForProgram(c.prog.Src, c.cfg.Clock.Period)
	}
}

// Run implements sim.Process; the telemetry wrapper around the interpreter
// proper (run) compiles to a nil-pointer branch when disabled.
func (c *Core) Run(limit sim.Time) (sim.Time, sim.RunState, sim.Time) {
	if c.tel == nil {
		return c.run(limit)
	}
	start := c.at
	startInsts := c.stats.Instructions
	haltedBefore := c.halted
	local, state, wake := c.run(limit)
	if local > start {
		c.tel.Span("exec", int64(start), int64(local),
			telemetry.Arg{Key: "insts", Val: c.stats.Instructions - startInsts})
	}
	if state == sim.StateDone && !haltedBefore {
		c.tel.Instant("halt", int64(local))
	}
	return local, state, wake
}

// run interprets instructions until the local clock passes limit, the core
// blocks, or the program halts.
func (c *Core) run(limit sim.Time) (sim.Time, sim.RunState, sim.Time) {
	if c.halted {
		return c.at, sim.StateDone, 0
	}
	c.stats.Dispatches++
	period := c.cfg.Clock.Period
	if c.blocked && c.wakeAt != sim.MaxTime {
		// An external wake told us when the blocking condition cleared;
		// the waited time is stall of the blocking kind.
		if c.wakeAt > c.at {
			c.stats.StallTime[c.blockKind] += c.wakeAt - c.at
			if c.prof != nil {
				// Blocked-wait: charged to the pc that will retry, with no
				// instruction retired. All engines block at the same pc.
				c.prof.Stall(c.pc, c.blockKind, c.wakeAt-c.at)
			}
			c.at = c.wakeAt
		}
		c.wakeAt = sim.MaxTime
	}
	p, compiled := c.prog, c.cfg.Exec != ExecPrecise
	for c.at <= limit {
		if c.pc < 0 || c.pc >= len(p.dec) {
			c.fail(fmt.Errorf("cpu %s: pc %d out of program (len %d)", c.cfg.Name, c.pc, len(p.dec)))
			return c.at, sim.StateDone, 0
		}
		if c.stats.Instructions >= c.maxInsts {
			c.fail(fmt.Errorf("cpu %s: instruction budget %d exceeded", c.cfg.Name, c.maxInsts))
			return c.at, sim.StateDone, 0
		}
		if compiled {
			if li := p.loops[c.pc]; li != nil {
				switch c.runLoop(li, limit) {
				case loopProgress:
					c.blocked = false
					continue
				case loopBlockedExit:
					if !c.blocked {
						c.blocked = true
						c.wakeAt = sim.MaxTime
					}
					c.stats.Retries++
					return c.at, sim.StateWaiting, c.wakeAt
				case loopHaltedExit:
					c.blocked = false
					if c.haltCallback != nil {
						c.haltCallback(c.at)
					}
					return c.at, sim.StateDone, 0
				}
				// loopNoProgress: fall through to the ALU-run and
				// per-instruction paths, which advance, block, or halt.
			}
			if n := p.aluRun[c.pc]; n > 1 {
				c.pc = c.runALUBlock(c.pc, int(n), limit)
				c.blocked = false
				continue
			}
		}
		in := &p.dec[c.pc]
		blocked := c.step(in, period)
		if blocked {
			if !c.blocked {
				c.blocked = true
				c.wakeAt = sim.MaxTime
			}
			c.stats.Retries++
			return c.at, sim.StateWaiting, c.wakeAt
		}
		c.stepped++
		c.blocked = false
		if c.halted {
			if c.haltCallback != nil {
				c.haltCallback(c.at)
			}
			return c.at, sim.StateDone, 0
		}
	}
	return c.at, sim.StateReady, 0
}

// fail halts the core with an error.
func (c *Core) fail(err error) {
	c.err = err
	c.halted = true
	if c.haltCallback != nil {
		c.haltCallback(c.at)
	}
}

// retire advances time for the instruction at pc that issued at t0 and
// completed its data at done, charging any slack to kind.
func (c *Core) retire(pc int, t0, done sim.Time, kind StallKind) {
	period := c.cfg.Clock.Period
	end := t0 + period
	c.stats.BusyTime += period
	var stall sim.Time
	if done > t0 && done+period > end {
		stall = done + period - end
		c.stats.StallTime[kind] += stall
		end = done + period
	}
	if c.prof != nil {
		c.prof.Record(pc, period, kind, stall)
	}
	c.at = end
}

// retireCycles advances time for the instruction at pc by 1 issue cycle +
// (cycles-1) execution cycles.
func (c *Core) retireCycles(pc int, t0 sim.Time, cycles int) {
	period := c.cfg.Clock.Period
	c.stats.BusyTime += period
	var stall sim.Time
	if cycles > 1 {
		stall = sim.Time(cycles-1) * period
		c.stats.StallTime[StallExec] += stall
	}
	if c.prof != nil {
		c.prof.Record(pc, period, StallExec, stall)
	}
	c.at = t0 + sim.Time(cycles)*period
}

func (c *Core) setReg(r uint8, v uint32) {
	if r != 0 {
		c.regs[r] = v
	}
}

// step executes one instruction. It returns true when the instruction
// cannot complete yet (stream empty / output full); the core retries it
// after a wake.
func (c *Core) step(in *decoded, period sim.Time) (blocked bool) {
	t0 := c.at
	pc0 := c.pc
	cl := in.class
	switch cl {
	case isa.ClassALU:
		c.setReg(in.rd, c.alu(in))
		c.pc++
		c.retireCycles(pc0, t0, 1)

	case isa.ClassMul:
		c.setReg(in.rd, c.mul(in))
		c.pc++
		c.retireCycles(pc0, t0, c.cfg.MulCycles)

	case isa.ClassDiv:
		c.setReg(in.rd, c.div(in))
		c.pc++
		c.retireCycles(pc0, t0, c.cfg.DivCycles)

	case isa.ClassLoad:
		addr := c.regs[in.rs1] + in.uimm
		size := int(in.size)
		r, err := c.sys.Load(t0, addr, size, uint32(c.pc))
		if err != nil {
			c.fail(err)
			return false
		}
		if r.Status == memhier.LoadBlocked {
			c.blockKind = StallStreamWait
			return true
		}
		v := r.Value
		if in.signed {
			v = signExtendVal(v, size)
		}
		c.setReg(in.rd, v)
		c.stats.LoadBytes += int64(size)
		c.pc++
		c.retire(pc0, t0, r.Done, c.loadStallKind(addr))

	case isa.ClassStore:
		addr := c.regs[in.rs1] + in.uimm
		size := int(in.size)
		r, err := c.sys.Store(t0, addr, size, c.regs[in.rs2], uint32(c.pc))
		if err != nil {
			c.fail(err)
			return false
		}
		if r.Status == memhier.LoadBlocked {
			c.blockKind = StallOutFull
			return true
		}
		c.stats.StoreBytes += int64(size)
		c.pc++
		c.retire(pc0, t0, r.Done, StallMem)

	case isa.ClassBranch:
		taken := c.branch(in)
		var cycles int
		if taken {
			c.pc += int(in.imm)
			cycles = c.takenCycles
		} else {
			c.pc++
			cycles = c.notTakenCycles
		}
		if cycles > 0 {
			c.retireCycles(pc0, t0, cycles)
		} else if c.prof != nil {
			// Zero-cycle taken branch (BranchFree): retired, no time.
			c.prof.Insts(pc0, 1)
		}

	case isa.ClassJump:
		link := uint32(c.pc + 1)
		if in.op == isa.OpJal {
			c.pc += int(in.imm)
		} else { // jalr: absolute instruction index
			c.pc = int(c.regs[in.rs1] + in.uimm)
		}
		c.setReg(in.rd, link)
		if c.jumpCycles > 0 {
			c.retireCycles(pc0, t0, c.jumpCycles)
		} else if c.prof != nil {
			c.prof.Insts(pc0, 1)
		}

	case isa.ClassStreamLoad:
		var r memhier.AccessResult
		var err error
		if in.op == isa.OpStreamLoad {
			r, err = c.sys.StreamLoad(t0, int(in.stream), int(in.width))
		} else {
			r, err = c.sys.StreamPeek(t0, int(in.stream), int(in.width), int64(in.imm))
		}
		if err != nil {
			c.fail(err)
			return false
		}
		switch r.Status {
		case memhier.LoadBlocked:
			c.blockKind = StallStreamWait
			return true
		case memhier.LoadEOS:
			// Listing 1: the loop ends when StreamLoad hangs at end of
			// stream and the firmware resets the core.
			c.halted = true
			c.at = t0 + period
			return false
		}
		c.setReg(in.rd, r.Value)
		if in.op == isa.OpStreamLoad {
			c.stats.StreamInBytes += int64(in.width)
		}
		c.pc++
		c.retire(pc0, t0, r.Done, StallStreamWait)

	case isa.ClassStreamStore:
		r, err := c.sys.StreamStore(t0, int(in.stream), int(in.width), c.regs[in.rs2])
		if err != nil {
			c.fail(err)
			return false
		}
		if r.Status == memhier.LoadBlocked {
			c.blockKind = StallOutFull
			return true
		}
		c.stats.StreamOutBytes += int64(in.width)
		c.pc++
		c.retire(pc0, t0, r.Done, StallOutFull)

	case isa.ClassStreamCtl:
		switch in.op {
		case isa.OpStreamAdv:
			amount := int64(in.imm) * int64(in.width)
			r, err := c.sys.StreamAdv(t0, int(in.stream), amount)
			if err != nil {
				c.fail(err)
				return false
			}
			if r.Status == memhier.LoadBlocked {
				c.blockKind = StallStreamWait
				return true
			}
		case isa.OpStreamEnd:
			v, err := c.sys.StreamEnd(int(in.stream))
			if err != nil {
				c.fail(err)
				return false
			}
			c.setReg(in.rd, v)
		case isa.OpStreamCsrR:
			v, err := c.sys.StreamCsr(int(in.stream), in.imm)
			if err != nil {
				c.fail(err)
				return false
			}
			c.setReg(in.rd, v)
		}
		c.pc++
		c.retireCycles(pc0, t0, 1)

	case isa.ClassHalt:
		c.halted = true
		c.at = t0 + period
		c.stats.BusyTime += period
		if c.prof != nil {
			c.prof.Record(pc0, period, StallExec, 0)
		}

	default:
		c.fail(fmt.Errorf("cpu %s: unknown class for %v", c.cfg.Name, in.op))
		return false
	}
	c.stats.Instructions++
	c.stats.ByClass[cl]++
	return false
}

// loadStallKind attributes load stalls: stream-view addresses stall on flash
// data, everything else on the memory hierarchy.
func (c *Core) loadStallKind(addr uint32) StallKind {
	if addr >= memhier.StreamInViewBase && addr < memhier.DRAMBase {
		if c.sys.ViewPath == memhier.ViewScratchpad {
			return StallStreamWait
		}
		// Cached view stalls are dominated by the cache/DRAM path.
		return StallMem
	}
	return StallMem
}

func (c *Core) alu(in *decoded) uint32 {
	a := c.regs[in.rs1]
	b := c.regs[in.rs2]
	imm := in.uimm
	switch in.op {
	case isa.OpAdd:
		return a + b
	case isa.OpSub:
		return a - b
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpSll:
		return a << (b & 31)
	case isa.OpSrl:
		return a >> (b & 31)
	case isa.OpSra:
		return uint32(int32(a) >> (b & 31))
	case isa.OpSlt:
		if int32(a) < int32(b) {
			return 1
		}
		return 0
	case isa.OpSltu:
		if a < b {
			return 1
		}
		return 0
	case isa.OpAddi:
		return a + imm
	case isa.OpAndi:
		return a & imm
	case isa.OpOri:
		return a | imm
	case isa.OpXori:
		return a ^ imm
	case isa.OpSlli:
		return a << (imm & 31)
	case isa.OpSrli:
		return a >> (imm & 31)
	case isa.OpSrai:
		return uint32(int32(a) >> (imm & 31))
	case isa.OpSlti:
		if int32(a) < in.imm {
			return 1
		}
		return 0
	case isa.OpSltiu:
		if a < imm {
			return 1
		}
		return 0
	case isa.OpLui:
		return imm << 12
	default:
		return 0
	}
}

func (c *Core) mul(in *decoded) uint32 {
	a := c.regs[in.rs1]
	b := c.regs[in.rs2]
	switch in.op {
	case isa.OpMul:
		return a * b
	case isa.OpMulh:
		return uint32(uint64(int64(int32(a))*int64(int32(b))) >> 32)
	case isa.OpMulhu:
		return uint32(uint64(a) * uint64(b) >> 32)
	default:
		return 0
	}
}

func (c *Core) div(in *decoded) uint32 {
	a := c.regs[in.rs1]
	b := c.regs[in.rs2]
	switch in.op {
	case isa.OpDiv:
		if b == 0 {
			return ^uint32(0) // RISC-V: div by zero = -1
		}
		if int32(a) == -1<<31 && int32(b) == -1 {
			return a // overflow: return dividend
		}
		return uint32(int32(a) / int32(b))
	case isa.OpDivu:
		if b == 0 {
			return ^uint32(0)
		}
		return a / b
	case isa.OpRem:
		if b == 0 {
			return a
		}
		if int32(a) == -1<<31 && int32(b) == -1 {
			return 0
		}
		return uint32(int32(a) % int32(b))
	case isa.OpRemu:
		if b == 0 {
			return a
		}
		return a % b
	default:
		return 0
	}
}

func (c *Core) branch(in *decoded) bool {
	a := c.regs[in.rs1]
	b := c.regs[in.rs2]
	switch in.op {
	case isa.OpBeq:
		return a == b
	case isa.OpBne:
		return a != b
	case isa.OpBlt:
		return int32(a) < int32(b)
	case isa.OpBge:
		return int32(a) >= int32(b)
	case isa.OpBltu:
		return a < b
	case isa.OpBgeu:
		return a >= b
	default:
		return false
	}
}

func loadSize(op isa.Op) (size int, signed bool) {
	switch op {
	case isa.OpLb:
		return 1, true
	case isa.OpLbu:
		return 1, false
	case isa.OpLh:
		return 2, true
	case isa.OpLhu:
		return 2, false
	default:
		return 4, false
	}
}

func storeSize(op isa.Op) int {
	switch op {
	case isa.OpSb:
		return 1
	case isa.OpSh:
		return 2
	default:
		return 4
	}
}

func signExtendVal(v uint32, size int) uint32 {
	switch size {
	case 1:
		return uint32(int32(int8(v)))
	case 2:
		return uint32(int32(int16(v)))
	default:
		return v
	}
}
