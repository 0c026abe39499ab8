package cpu

// Ahead-of-time translation: the fast interpreter strategy. Translate
// turns one assembled program into a Program, once, however many cores run
// it: the decoded instruction stream is partitioned into straight ALU runs
// and recognized stream-loop bodies (analyzeProgram), then translated to
// threaded code: one specialized Go closure per instruction form with
// registers, immediates and stream slots pre-resolved. Cycle counts are read
// from the running core, so one Program serves cores of any timing config.
// Straight ALU runs become a single pre-composed closure executed with one
// time/stats accumulation. A recognized loop body becomes one element per
// pc (an ALU run is one runALUBlock element), dispatched by runLoop's flat
// driver; every body pc maps to its loop, so an iteration cut short by the
// quantum or a blocked access resumes where it stopped. Pure-ALU bodies
// also get a closed-form kernel that runs many iterations in one call.
//
// Timing is byte-identical to ExecPrecise: every translated path reproduces
// exactly the c.at advance, Stats deltas, and blocking/halting behavior of
// the equivalent sequence of step() calls, and every Run call returns at
// the same local-time boundary — so the scheduler interleaving, and with it
// every shared-resource (DRAM, flash) access order, is unchanged (enforced
// by the equivalence soak in internal/experiments and the differential fuzz
// harness in this package). Translation happens before the program runs —
// not lazily — and the Program is immutable, so a core's execution is a
// pure function of the program and its inputs, which keeps runs
// deterministic and resumable. See DESIGN.md, "Ahead-of-time translation".

import (
	"fmt"

	"assasin/internal/asm"
	"assasin/internal/isa"
	"assasin/internal/memhier"
	"assasin/internal/sim"
)

// ExecMode selects the interpreter strategy.
type ExecMode int

const (
	// ExecCompiled (default) runs the Program's threaded-code translation.
	ExecCompiled ExecMode = iota
	// ExecPrecise interprets one instruction per step — the reference
	// semantics, kept as the equivalence oracle the tests select.
	ExecPrecise
)

// String implements fmt.Stringer.
func (m ExecMode) String() string {
	if m == ExecPrecise {
		return "precise"
	}
	return "compiled"
}

// streamNeed is the worst-case byte requirement of one loop iteration
// against one stream slot.
type streamNeed struct {
	slot int
	need int64
}

// loopInfo describes a recognized loop: a backward branch/jal at end
// targeting head, whose body consists only of operations the translated
// body can run without leaving the core (ALU/mul/div, loads/stores, stream
// ops with compile-time extents, forward branches, halt). ins/outs give the
// per-iteration worst-case stream consumption/production used to pre-check
// that a whole iteration — or any suffix of one — cannot block.
type loopInfo struct {
	head, end int
	bodyLen   int64 // instruction-budget bound per iteration
	ins       []streamNeed
	outs      []streamNeed
	// body[i] is the translated element at pc head+i; every body pc is an
	// entry point.
	body []bodyFn
	// kernel, set when the body is one straight ALU run closed by an
	// unconditional x0-linked jal, runs m identical iterations in one call.
	kernel loopKernel
}

// analyzeProgram builds the loop analysis the translation consumes for a
// decoded program: per-pc straight ALU run lengths, and per pc the
// recognized loop whose body holds it. Bodies never overlap: a body that
// contained another's back edge would hold an inner backward branch, which
// buildLoop rejects.
func analyzeProgram(dec []decoded) ([]int32, []*loopInfo) {
	n := len(dec)
	aluRun := make([]int32, n+1)
	for i := n - 1; i >= 0; i-- {
		if dec[i].class == isa.ClassALU {
			aluRun[i] = aluRun[i+1] + 1
		}
	}
	loops := make([]*loopInfo, n)
	for e := 0; e < n; e++ {
		in := &dec[e]
		back := false
		switch in.class {
		case isa.ClassBranch:
			back = in.imm < 0
		case isa.ClassJump:
			back = in.op == isa.OpJal && in.imm < 0
		}
		if !back {
			continue
		}
		head := e + int(in.imm)
		if head < 0 || loops[head] != nil {
			continue
		}
		if li := buildLoop(dec, head, e); li != nil {
			for pc := head; pc <= e; pc++ {
				loops[pc] = li
			}
		}
	}
	return aluRun[:n], loops
}

// buildLoop validates the body [head, end] and computes its per-slot stream
// needs; it returns nil when any instruction is outside the translatable
// subset. It is the one gate on what a loop body may hold: compileBodyElem
// translates exactly the classes it accepts.
func buildLoop(dec []decoded, head, end int) *loopInfo {
	consume := map[int]int64{} // StreamLoad widths per in slot
	peek := map[int]int64{}    // max Peek extent (off+width) per in slot
	adv := map[int]int64{}     // StreamAdv amounts per in slot
	produce := map[int]int64{} // StreamStore widths per out slot
	for i := head; i <= end; i++ {
		in := &dec[i]
		switch in.class {
		case isa.ClassALU, isa.ClassMul, isa.ClassDiv, isa.ClassLoad, isa.ClassStore, isa.ClassHalt:
			// Always translatable: loads/stores go through the same
			// memhier.System calls as precise stepping.
		case isa.ClassBranch:
			if !(in.imm > 0 || (i == end && i+int(in.imm) == head)) {
				return nil // inner backward branch: let the outer loop win
			}
		case isa.ClassJump:
			if in.op != isa.OpJal {
				return nil // jalr targets are data-dependent
			}
			if !(in.imm > 0 || (i == end && i+int(in.imm) == head)) {
				return nil
			}
		case isa.ClassStreamLoad:
			s := int(in.stream)
			if in.op == isa.OpStreamLoad {
				consume[s] += int64(in.width)
			} else { // StreamPeek
				if in.imm < 0 {
					return nil
				}
				if ext := int64(in.imm) + int64(in.width); ext > peek[s] {
					peek[s] = ext
				}
			}
		case isa.ClassStreamStore:
			produce[int(in.stream)] += int64(in.width)
		case isa.ClassStreamCtl:
			switch in.op {
			case isa.OpStreamAdv:
				if in.imm < 0 {
					return nil
				}
				adv[int(in.stream)] += int64(in.imm) * int64(in.width)
			case isa.OpStreamEnd:
				// Computed exactly from Head/Tail/closed state.
			case isa.OpStreamCsrR:
				if in.imm != 0 && in.imm != 1 {
					return nil
				}
			default:
				return nil
			}
		default:
			return nil
		}
	}
	li := &loopInfo{head: head, end: end, bodyLen: int64(end - head + 1)}
	for s := range peek {
		if _, ok := consume[s]; !ok {
			consume[s] = 0 // peek-only slot still needs an entry
		}
	}
	for s, n := range adv {
		if _, ok := consume[s]; ok {
			consume[s] += n // later loads and peeks sit behind the Adv
		} else {
			// The translated Adv checks itself, like System.StreamAdv; the
			// entry keeps the slot under runLoop's range check.
			consume[s] = 0
		}
	}
	for s, n := range consume {
		// At any point in an iteration, bytes needed past the entry Head are
		// bounded by the total consumption plus the largest peek extent.
		li.ins = append(li.ins, streamNeed{slot: s, need: n + peek[s]})
	}
	for s, n := range produce {
		li.outs = append(li.outs, streamNeed{slot: s, need: n})
	}
	return li
}

// regs is the architectural register file the translated closures act on.
type regs = [isa.NumRegs]uint32

// aluFn is one translated ALU instruction: a pure register-file effect with
// rd/rs1/rs2/immediate pre-resolved. Timing and stats are accumulated in
// bulk by the caller (runALUBlock, runLoop).
type aluFn func(r *regs)

// loopKernel executes m identical iterations of a pure-ALU loop body — the
// closed-form replacement for re-dispatching the body per iteration.
type loopKernel func(r *regs, m int64)

// ctl reports how a translated loop-body step left the core.
type ctl uint8

const (
	// ctlNext: the instruction retired; continue at the returned pc.
	ctlNext ctl = iota
	// ctlBlockedStream / ctlBlockedOut: a load, store or Adv blocked; the
	// core must stall (stream-wait or out-full) and retry the same pc.
	ctlBlockedStream
	ctlBlockedOut
	// ctlHalted: the program halted (cleanly or by error); the closure has
	// already committed c.pc and the halt state.
	ctlHalted
)

// bodyFn is one translated loop-body element. It receives the virtual pc
// (for error reporting and link/branch arithmetic) and the dispatch limit
// (consumed only by ALU-run elements, which clamp at the quantum boundary),
// and returns the next pc plus the exit disposition.
type bodyFn func(c *Core, vpc int, limit sim.Time) (int, ctl)

// Program is the translation of one assembled program, shared read-only by
// every core that runs it: the decoded instructions, the loop analysis
// (aluRun[i] is the length of the straight ALU run starting at i, loops[i]
// the recognized loop whose body holds i, nil outside any), and the threaded
// code: per pc the specialized ALU closure and, where a straight ALU run
// starts, the pre-composed whole-run closure. Loop bodies and kernels live
// on their loopInfo. Nothing in it depends on a core; the closures read
// timing from the core they run on.
type Program struct {
	Src    *asm.Program // what was translated; kprof symbolizes against it
	dec    []decoded
	aluRun []int32
	loops  []*loopInfo
	alu    []aluFn
	blocks []aluFn
}

// Translate decodes, analyzes and compiles src. The result is immutable and
// may be loaded into any number of cores, concurrently.
func Translate(src *asm.Program) *Program {
	n := len(src.Insts)
	p := &Program{Src: src, dec: make([]decoded, n), alu: make([]aluFn, n), blocks: make([]aluFn, n)}
	for i, in := range src.Insts {
		p.dec[i] = decode(in)
	}
	p.aluRun, p.loops = analyzeProgram(p.dec)
	for i := range p.dec {
		if p.dec[i].class == isa.ClassALU {
			p.alu[i] = compileALU(&p.dec[i])
		}
	}
	// Every pc with a straight run gets a whole-run closure: runs are
	// suffix-closed (a branch may enter mid-run), so this covers every
	// entry point runALUBlock can see.
	for i := 0; i < n; i++ {
		if r := int(p.aluRun[i]); r > 1 {
			p.blocks[i] = seqALU(p.alu[i : i+r])
		}
	}
	for pc, li := range p.loops {
		if li == nil || li.head != pc {
			continue
		}
		li.body = make([]bodyFn, li.end-li.head+1)
		for i := range li.body {
			li.body[i] = compileBodyElem(p, li.head+i)
		}
		if back := &p.dec[li.end]; li.end > li.head && int(p.aluRun[li.head]) == li.end-li.head &&
			back.class == isa.ClassJump && back.rd == 0 {
			li.kernel = loopKernelOf(p.alu[li.head:li.end])
		}
	}
	return p
}

// countInst accrues the per-instruction counters shared by every retired
// instruction.
func (c *Core) countInst(cl isa.Class) {
	c.stats.Instructions++
	c.stats.ByClass[cl]++
}

// streamRetire advances time for the pre-validated stream access at pc
// without re-crossing the memhier.System wrappers: busy one cycle, plus
// StreamExtraCycles charged to kind.
func (c *Core) streamRetire(pc int, t0 sim.Time, kind StallKind) {
	var extra sim.Time
	if c.sys.StreamExtraCycles > 0 {
		extra = c.sys.Clock.Cycles(int64(c.sys.StreamExtraCycles))
		c.stats.StallTime[kind] += extra
	}
	period := c.cfg.Clock.Period
	c.stats.BusyTime += period
	if c.prof != nil {
		c.prof.Record(pc, period, kind, extra)
	}
	c.at = t0 + extra + period
}

// branchStep commits a resolved branch: pc arithmetic, taken/not-taken
// cycles, and instruction accounting. Shared by the six specialized branch
// closures.
func (c *Core) branchStep(vpc int, taken bool, delta int) int {
	t0 := c.at
	var cycles, nv int
	if taken {
		nv = vpc + delta
		cycles = c.takenCycles
	} else {
		nv = vpc + 1
		cycles = c.notTakenCycles
	}
	if cycles > 0 {
		c.retireCycles(vpc, t0, cycles)
	} else if c.prof != nil {
		c.prof.Insts(vpc, 1)
	}
	c.countInst(isa.ClassBranch)
	return nv
}

// compileBodyElem translates the instruction at pc into its loop-body
// element; where a straight ALU run starts, the element runs the rest of
// the run. The arms mirror Core.step one-for-one for the pre-validated
// case; any timing or accounting drift between the two is caught by the
// equivalence soak and the differential fuzz harness.
func compileBodyElem(p *Program, pc int) bodyFn {
	in := &p.dec[pc]
	switch in.class {
	case isa.ClassALU:
		if n := int(p.aluRun[pc]); n > 1 {
			return func(c *Core, vpc int, limit sim.Time) (int, ctl) {
				return c.runALUBlock(vpc, n, limit), ctlNext
			}
		}
		f := compileALU(in)
		return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
			t0 := c.at
			f(&c.regs)
			c.retireCycles(vpc, t0, 1)
			c.countInst(isa.ClassALU)
			return vpc + 1, ctlNext
		}

	case isa.ClassMul:
		return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
			t0 := c.at
			c.setReg(in.rd, c.mul(in))
			c.retireCycles(vpc, t0, c.cfg.MulCycles)
			c.countInst(isa.ClassMul)
			return vpc + 1, ctlNext
		}

	case isa.ClassDiv:
		return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
			t0 := c.at
			c.setReg(in.rd, c.div(in))
			c.retireCycles(vpc, t0, c.cfg.DivCycles)
			c.countInst(isa.ClassDiv)
			return vpc + 1, ctlNext
		}

	case isa.ClassLoad:
		rd, rs1 := in.rd, in.rs1
		uimm := in.uimm
		size := int(in.size)
		signed := in.signed
		return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
			t0 := c.at
			addr := c.regs[rs1] + uimm
			r, err := c.sys.Load(t0, addr, size, uint32(vpc))
			if err != nil {
				c.pc = vpc
				c.fail(err)
				return vpc, ctlHalted
			}
			if r.Status == memhier.LoadBlocked {
				return vpc, ctlBlockedStream
			}
			v := r.Value
			if signed {
				v = signExtendVal(v, size)
			}
			c.setReg(rd, v)
			c.stats.LoadBytes += int64(size)
			c.retire(vpc, t0, r.Done, c.loadStallKind(addr))
			c.countInst(isa.ClassLoad)
			return vpc + 1, ctlNext
		}

	case isa.ClassStore:
		rs1, rs2 := in.rs1, in.rs2
		uimm := in.uimm
		size := int(in.size)
		return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
			t0 := c.at
			addr := c.regs[rs1] + uimm
			r, err := c.sys.Store(t0, addr, size, c.regs[rs2], uint32(vpc))
			if err != nil {
				c.pc = vpc
				c.fail(err)
				return vpc, ctlHalted
			}
			if r.Status == memhier.LoadBlocked {
				return vpc, ctlBlockedOut
			}
			c.stats.StoreBytes += int64(size)
			c.retire(vpc, t0, r.Done, StallMem)
			c.countInst(isa.ClassStore)
			return vpc + 1, ctlNext
		}

	case isa.ClassBranch:
		rs1, rs2 := in.rs1, in.rs2
		delta := int(in.imm)
		switch in.op {
		case isa.OpBeq:
			return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
				return c.branchStep(vpc, c.regs[rs1] == c.regs[rs2], delta), ctlNext
			}
		case isa.OpBne:
			return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
				return c.branchStep(vpc, c.regs[rs1] != c.regs[rs2], delta), ctlNext
			}
		case isa.OpBlt:
			return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
				return c.branchStep(vpc, int32(c.regs[rs1]) < int32(c.regs[rs2]), delta), ctlNext
			}
		case isa.OpBge:
			return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
				return c.branchStep(vpc, int32(c.regs[rs1]) >= int32(c.regs[rs2]), delta), ctlNext
			}
		case isa.OpBltu:
			return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
				return c.branchStep(vpc, c.regs[rs1] < c.regs[rs2], delta), ctlNext
			}
		case isa.OpBgeu:
			return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
				return c.branchStep(vpc, c.regs[rs1] >= c.regs[rs2], delta), ctlNext
			}
		default: // mirror Core.branch: unknown branch ops fall through
			return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
				return c.branchStep(vpc, false, delta), ctlNext
			}
		}

	case isa.ClassJump: // OpJal only (validated by buildLoop)
		rd := in.rd
		delta := int(in.imm)
		if rd == 0 {
			return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
				if c.jumpCycles > 0 {
					c.retireCycles(vpc, c.at, c.jumpCycles)
				} else if c.prof != nil {
					c.prof.Insts(vpc, 1)
				}
				c.countInst(isa.ClassJump)
				return vpc + delta, ctlNext
			}
		}
		return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
			c.regs[rd] = uint32(vpc + 1)
			if c.jumpCycles > 0 {
				c.retireCycles(vpc, c.at, c.jumpCycles)
			} else if c.prof != nil {
				c.prof.Insts(vpc, 1)
			}
			c.countInst(isa.ClassJump)
			return vpc + delta, ctlNext
		}

	case isa.ClassStreamLoad:
		slot := int(in.stream)
		width := int(in.width)
		rd := in.rd
		if in.op == isa.OpStreamLoad {
			w64 := int64(in.width)
			return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
				t0 := c.at
				v := c.sys.Streams.In[slot].LoadDirect(width)
				c.setReg(rd, v)
				c.stats.StreamInBytes += w64
				c.streamRetire(vpc, t0, StallStreamWait)
				c.countInst(isa.ClassStreamLoad)
				return vpc + 1, ctlNext
			}
		}
		off := int64(in.imm)
		return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
			t0 := c.at
			v := c.sys.Streams.In[slot].PeekDirect(off, width)
			c.setReg(rd, v)
			c.streamRetire(vpc, t0, StallStreamWait)
			c.countInst(isa.ClassStreamLoad)
			return vpc + 1, ctlNext
		}

	case isa.ClassStreamStore:
		slot := int(in.stream)
		width := int(in.width)
		rs2 := in.rs2
		w64 := int64(in.width)
		return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
			t0 := c.at
			c.sys.Streams.Out[slot].Append(c.regs[rs2], width)
			c.stats.StreamOutBytes += w64
			c.streamRetire(vpc, t0, StallOutFull)
			c.countInst(isa.ClassStreamStore)
			return vpc + 1, ctlNext
		}

	case isa.ClassStreamCtl:
		slot := int(in.stream)
		switch in.op {
		case isa.OpStreamAdv:
			amount := int64(in.imm) * int64(in.width)
			return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
				t0 := c.at
				st := c.sys.Streams.In[slot]
				// Mirrors System.StreamAdv: an Adv past the buffered bytes
				// blocks while the stream is open and releases the final
				// partial page once it is closed. The pre-check does not
				// cover an Adv-only slot, so this check is the only one.
				n := amount
				if buf := int64(st.Buffered()); n > buf {
					if !st.Closed() {
						return vpc, ctlBlockedStream
					}
					n = buf
				}
				_ = st.Adv(n) // cannot fail: 0 <= n <= Buffered()
				c.retireCycles(vpc, t0, 1)
				c.countInst(isa.ClassStreamCtl)
				return vpc + 1, ctlNext
			}
		case isa.OpStreamEnd:
			rd := in.rd
			return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
				t0 := c.at
				var v uint32
				if c.sys.Streams.In[slot].Exhausted() {
					v = 1
				}
				c.setReg(rd, v)
				c.retireCycles(vpc, t0, 1)
				c.countInst(isa.ClassStreamCtl)
				return vpc + 1, ctlNext
			}
		default: // OpStreamCsrR, imm in {0,1} (validated by buildLoop)
			rd := in.rd
			if in.imm == 0 {
				return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
					t0 := c.at
					c.setReg(rd, uint32(c.sys.Streams.In[slot].Head()))
					c.retireCycles(vpc, t0, 1)
					c.countInst(isa.ClassStreamCtl)
					return vpc + 1, ctlNext
				}
			}
			return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
				t0 := c.at
				c.setReg(rd, uint32(c.sys.Streams.In[slot].Tail()))
				c.retireCycles(vpc, t0, 1)
				c.countInst(isa.ClassStreamCtl)
				return vpc + 1, ctlNext
			}
		}

	case isa.ClassHalt:
		return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
			period := c.cfg.Clock.Period
			c.halted = true
			c.at += period
			c.stats.BusyTime += period
			if c.prof != nil {
				c.prof.Record(vpc, period, StallExec, 0)
			}
			c.countInst(isa.ClassHalt)
			c.pc = vpc
			return vpc, ctlHalted
		}
	}
	// Invariant: buildLoop admits only the classes handled above, so an
	// untranslatable instruction here means the two have drifted apart.
	panic(fmt.Sprintf("cpu: loop body at pc %d holds %v (class %d), which buildLoop must reject", pc, in.op, in.class))
}

// compileALU specializes one ALU instruction to a register-file effect. The
// op semantics mirror Core.alu (kept in sync); rd == x0
// writes are dropped at translation time since ALU ops have no other
// architectural effect.
func compileALU(in *decoded) aluFn {
	rd, rs1, rs2 := in.rd, in.rs1, in.rs2
	imm := in.imm
	uimm := in.uimm
	if rd == 0 {
		return func(*regs) {}
	}
	switch in.op {
	case isa.OpAdd:
		return func(r *regs) { r[rd] = r[rs1] + r[rs2] }
	case isa.OpSub:
		return func(r *regs) { r[rd] = r[rs1] - r[rs2] }
	case isa.OpAnd:
		return func(r *regs) { r[rd] = r[rs1] & r[rs2] }
	case isa.OpOr:
		return func(r *regs) { r[rd] = r[rs1] | r[rs2] }
	case isa.OpXor:
		return func(r *regs) { r[rd] = r[rs1] ^ r[rs2] }
	case isa.OpSll:
		return func(r *regs) { r[rd] = r[rs1] << (r[rs2] & 31) }
	case isa.OpSrl:
		return func(r *regs) { r[rd] = r[rs1] >> (r[rs2] & 31) }
	case isa.OpSra:
		return func(r *regs) { r[rd] = uint32(int32(r[rs1]) >> (r[rs2] & 31)) }
	case isa.OpSlt:
		return func(r *regs) {
			if int32(r[rs1]) < int32(r[rs2]) {
				r[rd] = 1
			} else {
				r[rd] = 0
			}
		}
	case isa.OpSltu:
		return func(r *regs) {
			if r[rs1] < r[rs2] {
				r[rd] = 1
			} else {
				r[rd] = 0
			}
		}
	case isa.OpAddi:
		return func(r *regs) { r[rd] = r[rs1] + uimm }
	case isa.OpAndi:
		return func(r *regs) { r[rd] = r[rs1] & uimm }
	case isa.OpOri:
		return func(r *regs) { r[rd] = r[rs1] | uimm }
	case isa.OpXori:
		return func(r *regs) { r[rd] = r[rs1] ^ uimm }
	case isa.OpSlli:
		sh := uimm & 31
		return func(r *regs) { r[rd] = r[rs1] << sh }
	case isa.OpSrli:
		sh := uimm & 31
		return func(r *regs) { r[rd] = r[rs1] >> sh }
	case isa.OpSrai:
		sh := uimm & 31
		return func(r *regs) { r[rd] = uint32(int32(r[rs1]) >> sh) }
	case isa.OpSlti:
		return func(r *regs) {
			if int32(r[rs1]) < imm {
				r[rd] = 1
			} else {
				r[rd] = 0
			}
		}
	case isa.OpSltiu:
		return func(r *regs) {
			if r[rs1] < uimm {
				r[rd] = 1
			} else {
				r[rd] = 0
			}
		}
	case isa.OpLui:
		v := uimm << 12
		return func(r *regs) { r[rd] = v }
	default: // mirror Core.alu: unknown ALU-class ops write zero
		return func(r *regs) { r[rd] = 0 }
	}
}

// seqALU composes a straight ALU run into one closure. Small runs are
// unrolled so the sweep costs one call per instruction with no loop
// overhead; longer runs split recursively into a balanced call tree.
func seqALU(fns []aluFn) aluFn {
	switch len(fns) {
	case 0:
		return func(*regs) {}
	case 1:
		return fns[0]
	case 2:
		f0, f1 := fns[0], fns[1]
		return func(r *regs) { f0(r); f1(r) }
	case 3:
		f0, f1, f2 := fns[0], fns[1], fns[2]
		return func(r *regs) { f0(r); f1(r); f2(r) }
	case 4:
		f0, f1, f2, f3 := fns[0], fns[1], fns[2], fns[3]
		return func(r *regs) { f0(r); f1(r); f2(r); f3(r) }
	case 5:
		f0, f1, f2, f3, f4 := fns[0], fns[1], fns[2], fns[3], fns[4]
		return func(r *regs) { f0(r); f1(r); f2(r); f3(r); f4(r) }
	case 6:
		f0, f1, f2, f3, f4, f5 := fns[0], fns[1], fns[2], fns[3], fns[4], fns[5]
		return func(r *regs) {
			f0(r)
			f1(r)
			f2(r)
			f3(r)
			f4(r)
			f5(r)
		}
	default:
		mid := (len(fns) + 1) / 2
		a, b := seqALU(fns[:mid]), seqALU(fns[mid:])
		return func(r *regs) { a(r); b(r) }
	}
}

// loopKernelOf builds the closed-form multi-iteration kernel for a pure-ALU
// loop body: the iteration loop lives inside the closure, so executing m
// iterations costs one indirect call per body instruction and nothing else.
func loopKernelOf(fns []aluFn) loopKernel {
	switch len(fns) {
	case 0:
		return func(*regs, int64) {}
	case 1:
		f0 := fns[0]
		return func(r *regs, m int64) {
			for ; m > 0; m-- {
				f0(r)
			}
		}
	case 2:
		f0, f1 := fns[0], fns[1]
		return func(r *regs, m int64) {
			for ; m > 0; m-- {
				f0(r)
				f1(r)
			}
		}
	case 3:
		f0, f1, f2 := fns[0], fns[1], fns[2]
		return func(r *regs, m int64) {
			for ; m > 0; m-- {
				f0(r)
				f1(r)
				f2(r)
			}
		}
	case 4:
		f0, f1, f2, f3 := fns[0], fns[1], fns[2], fns[3]
		return func(r *regs, m int64) {
			for ; m > 0; m-- {
				f0(r)
				f1(r)
				f2(r)
				f3(r)
			}
		}
	default:
		body := seqALU(fns)
		return func(r *regs, m int64) {
			for ; m > 0; m-- {
				body(r)
			}
		}
	}
}

// runALUBlock executes up to n consecutive ALU instructions starting at pc
// as one step: register updates in sequence, then a single c.at advance and
// one BusyTime/Instructions accumulation. The executed count is clamped so
// that, exactly like precise stepping, an instruction issues iff its start
// time is <= limit and the instruction budget is never exceeded. The whole
// run is one pre-composed closure; a clamped run sweeps the per-instruction
// closures instead. It returns the next pc.
func (c *Core) runALUBlock(pc, n int, limit sim.Time) int {
	period := c.cfg.Clock.Period
	whole := n
	if rem := c.maxInsts - c.stats.Instructions; int64(n) > rem {
		n = int(rem)
	}
	// Instruction i of the block issues at c.at + i*period and, like precise
	// stepping, executes iff that start time is <= limit. The division only
	// runs when the block straddles the quantum boundary.
	if c.at+sim.Time(n-1)*period > limit {
		n = int(int64((limit-c.at)/period)) + 1
	}
	p := c.prog
	if n == whole && p.blocks[pc] != nil {
		p.blocks[pc](&c.regs)
	} else {
		for _, f := range p.alu[pc : pc+n] {
			f(&c.regs)
		}
	}
	nt := sim.Time(n) * period
	c.at += nt
	c.stats.BusyTime += nt
	c.stats.Instructions += int64(n)
	c.stats.ByClass[isa.ClassALU] += int64(n)
	if c.prof != nil {
		// One O(1) range update for the whole run; the snapshot's prefix
		// sum spreads it back over [pc, pc+n) at one issue cycle each,
		// exactly what precise stepping records.
		c.prof.BulkALU(pc, n)
	}
	return pc + n
}

// loopExit reports how a translated loop execution ended.
type loopExit int

const (
	// loopNoProgress: no instruction ran (stream budget or instruction
	// budget short at entry); c.pc is unchanged and the caller must fall
	// back to runALUBlock or per-instruction stepping.
	loopNoProgress loopExit = iota
	// loopProgress: >= 1 instruction ran; c.pc/c.at/stats are committed.
	loopProgress
	// loopBlockedExit: a load, store or Adv blocked (c.blockKind set, c.pc
	// at the blocked instruction), after possibly running instructions.
	loopBlockedExit
	// loopHaltedExit: the program halted (cleanly or by error).
	loopHaltedExit
)

// runLoop executes a recognized loop body from c.pc, which may be any body
// pc, while (a) the local clock has not passed limit, (b) the instruction
// budget admits a full iteration, and (c) BulkAvail/window-room pre-checks
// prove the iteration's stream loads, peeks and stores cannot block. The
// checks run at entry and at every iteration start; a whole-iteration bound
// also bounds any suffix, so a mid-body entry is covered. Under (c), every
// StreamLoad/Peek resolves at its issue time (the needed bytes were usable
// at the check, and availability is monotone), so stream ops bypass the
// memhier wrappers while accruing the identical timing: busy one cycle plus
// StreamExtraCycles of stream-wait (in) or out-full (out) stall. Loads,
// stores and Adv still check for themselves, and the per-element limit
// check reproduces precise stepping's stop-at-quantum behavior exactly.
func (c *Core) runLoop(li *loopInfo, limit sim.Time) loopExit {
	sys := c.sys
	if sys.Streams == nil && (len(li.ins) > 0 || len(li.outs) > 0) {
		return loopNoProgress
	}
	for _, sn := range li.ins {
		if sn.slot >= len(sys.Streams.In) {
			return loopNoProgress // slow path raises the precise error
		}
	}
	for _, sn := range li.outs {
		if sn.slot >= len(sys.Streams.Out) {
			return loopNoProgress
		}
	}
	head, body := li.head, li.body
	vpc := c.pc
	progress := false
iterations:
	for c.at <= limit {
		if c.stats.Instructions+li.bodyLen > c.maxInsts {
			break
		}
		for _, sn := range li.ins {
			if sys.Streams.In[sn.slot].BulkAvail(c.at) < sn.need {
				break iterations
			}
		}
		for _, sn := range li.outs {
			st := sys.Streams.Out[sn.slot]
			if int64(st.WindowBytes()-st.Buffered()) < sn.need {
				break iterations
			}
		}
		if vpc == head && li.kernel != nil && c.jumpCycles == 0 && c.runKernel(li, limit) {
			progress = true
			continue
		}
		for {
			// nv is where execution stopped: past the element on a clean
			// fall-through, at the blocked instruction on a block.
			nv, s := body[vpc-head](c, vpc, limit)
			switch s {
			case ctlNext:
			case ctlBlockedStream:
				c.blockKind = StallStreamWait
				c.pc = nv
				return loopBlockedExit
			case ctlBlockedOut:
				c.blockKind = StallOutFull
				c.pc = nv
				return loopBlockedExit
			default: // ctlHalted: pc and halt state set by the closure
				return loopHaltedExit
			}
			vpc = nv
			progress = true
			if vpc == head {
				continue iterations
			}
			if uint(vpc-head) >= uint(len(body)) || c.at > limit {
				c.pc = vpc // a forward branch left the body, or the quantum ended
				return loopProgress
			}
		}
	}
	c.pc = vpc
	if progress {
		return loopProgress
	}
	return loopNoProgress
}

// runKernel batches every full iteration of a pure-ALU loop (free back
// edge, identical iterations) that fits the quantum and the instruction
// budget into one kernel call, and reports whether any ran. Iteration m's
// jal issues at c.at + n*m*period, so m full iterations fit iff n*m*period
// stays within the quantum; the partial tail is left to the per-element
// driver.
func (c *Core) runKernel(li *loopInfo, limit sim.Time) bool {
	period := c.cfg.Clock.Period
	n := int64(li.end - li.head)
	m := int64(limit-c.at) / int64(period) / n
	if rem := (c.maxInsts - c.stats.Instructions) / (n + 1); m > rem {
		m = rem
	}
	if m <= 0 {
		return false
	}
	li.kernel(&c.regs, m)
	nt := sim.Time(n*m) * period
	c.at += nt
	c.stats.BusyTime += nt
	c.stats.Instructions += (n + 1) * m
	c.stats.ByClass[isa.ClassALU] += n * m
	c.stats.ByClass[isa.ClassJump] += m
	if c.prof != nil {
		// m executions of the ALU body plus m zero-cycle back-edge jals
		// (batching only runs when jumpCycles == 0, where precise stepping
		// records the jal as time-free too).
		c.prof.BulkRange(li.head, li.end, m)
		c.prof.Insts(li.end, m)
	}
	return true
}
