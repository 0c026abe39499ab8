package cpu

// Ahead-of-time translation: the fast interpreter strategy. At program-load
// time the decoded instruction stream is partitioned into straight ALU runs
// and recognized stream-loop bodies (analyzeProgram), then translated to
// threaded code: one specialized Go closure per instruction form with
// registers, immediates, stream slots and cycle counts pre-resolved.
// Straight ALU runs become a single pre-composed closure executed with one
// time/stats accumulation; pure-ALU loop bodies become a closed-form
// multi-iteration kernel; every other recognized loop body becomes a chain
// of bodyFn closures driven by runLoop.
//
// Timing is byte-identical to ExecPrecise: every translated path reproduces
// exactly the c.at advance, Stats deltas, and blocking/halting behavior of
// the equivalent sequence of step() calls, and every Run call returns at
// the same local-time boundary — so the scheduler interleaving, and with it
// every shared-resource (DRAM, flash) access order, is unchanged (enforced
// by the equivalence soak in internal/experiments and the differential fuzz
// harness in this package). Translation happens at load time — not lazily —
// so a core's execution is a pure function of the loaded program and its
// inputs, which keeps runs deterministic and resumable. See DESIGN.md,
// "Ahead-of-time translation".

import (
	"fmt"

	"assasin/internal/isa"
	"assasin/internal/memhier"
	"assasin/internal/sim"
)

// ExecMode selects the interpreter strategy.
type ExecMode int

const (
	// ExecCompiled (default) runs the load-time threaded-code translation.
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
// that a whole iteration cannot block.
type loopInfo struct {
	head, end int
	bodyLen   int64 // instruction-budget bound per iteration
	ins       []streamNeed
	outs      []streamNeed
	// pureALU marks a body that is one straight ALU run closed by an
	// unconditional x0-linked jal: iterations are identical in time and
	// effect, so runLoop batches as many as fit the quantum in one pass.
	pureALU bool
}

// analyzeProgram builds the loop analysis the translation consumes for a
// decoded program: per-pc straight ALU run lengths and recognized loop
// bodies.
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
		li := buildLoop(dec, head, e)
		if li != nil && e > head && int(aluRun[head]) == e-head &&
			in.class == isa.ClassJump && in.rd == 0 {
			li.pureALU = true
		}
		loops[head] = li
	}
	return aluRun[:n], loops
}

// buildLoop validates the body [head, end] and computes its per-slot stream
// needs; it returns nil when any instruction is outside the translatable
// subset. It is the one gate on what a loop body may hold: compileBodyElem
// translates exactly the classes it accepts.
func buildLoop(dec []decoded, head, end int) *loopInfo {
	consume := map[int]int64{} // StreamLoad widths + Adv amounts per in slot
	peek := map[int]int64{}    // max Peek extent (off+width) per in slot
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
				consume[int(in.stream)] += int64(in.imm) * int64(in.width)
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
	// ctlBlockedStream / ctlBlockedOut: a load or store blocked; the core
	// must stall (stream-wait or out-full) and retry the same pc.
	ctlBlockedStream
	ctlBlockedOut
	// ctlHalted: the program halted (cleanly or by error); the closure has
	// already committed c.pc and the halt state.
	ctlHalted
)

// bodyFn is one translated loop-body instruction. It receives the virtual
// pc (for error reporting and link/branch arithmetic) and the dispatch
// limit (consumed only by ALU-run steps, which clamp at the quantum
// boundary), and returns the next pc plus the exit disposition.
type bodyFn func(c *Core, vpc int, limit sim.Time) (int, ctl)

// compiledProgram is the load-time translation of one decoded program, per
// pc: the specialized ALU closure, the pre-composed whole-run closure where
// a straight ALU run starts, the multi-iteration kernel for pure-ALU loop
// heads, and the threaded-code body for recognized loop heads.
type compiledProgram struct {
	alu     []aluFn
	blocks  []aluFn
	kernels []loopKernel
	bodies  [][]bodyFn
}

// compileProgram translates the decoded program. It requires the loop
// analysis (c.aluRun, c.loops) to be in place.
func (c *Core) compileProgram() *compiledProgram {
	dec := c.dec
	n := len(dec)
	cp := &compiledProgram{
		alu:     make([]aluFn, n),
		blocks:  make([]aluFn, n),
		kernels: make([]loopKernel, n),
		bodies:  make([][]bodyFn, n),
	}
	for i := range dec {
		if dec[i].class == isa.ClassALU {
			cp.alu[i] = compileALU(&dec[i])
		}
	}
	// Every pc with a straight run gets a whole-run closure: runs are
	// suffix-closed (a branch may enter mid-run), so this covers every
	// entry point runALUBlock can see.
	for i := 0; i < n; i++ {
		if r := int(c.aluRun[i]); r > 1 {
			cp.blocks[i] = seqALU(cp.alu[i : i+r])
		}
	}
	for h, li := range c.loops {
		if li == nil {
			continue
		}
		if li.pureALU {
			cp.kernels[h] = loopKernelOf(cp.alu[li.head:li.end])
		}
		cp.bodies[h] = c.compileBody(li)
	}
	return cp
}

// compileBody translates a recognized loop body to threaded code. Beyond per-instruction closures, straight-line elements are composed into
// suffix chains: bodies[i] executes from i through the next control-flow
// instruction in one call, so a typical iteration (ALU run, stream ops,
// back edge) costs one driver dispatch instead of one per instruction. A
// chain hands off to its successor only on a clean fall-through
// (ctlNext, the statically expected next pc, and local time still within
// the quantum), so blocking, faults, clamped ALU runs and the per-
// instruction issue rule all behave exactly as in per-step dispatch.
func (c *Core) compileBody(li *loopInfo) []bodyFn {
	n := li.end - li.head + 1
	elems := make([]bodyFn, n)
	sizes := make([]int, n)
	ctrl := make([]bool, n)
	for i := li.head; i <= li.end; i++ {
		f, size, isCtrl := c.compileBodyInst(i)
		elems[i-li.head] = f
		sizes[i-li.head] = size
		ctrl[i-li.head] = isCtrl
	}
	chains := make([]bodyFn, n)
	for i := n - 1; i >= 0; i-- {
		if ctrl[i] || i+sizes[i] >= n {
			chains[i] = elems[i]
			continue
		}
		chains[i] = chainBody(elems[i], chains[i+sizes[i]], sizes[i])
	}
	return chains
}

// chainBody composes a straight-line element (static advance of size) with
// the chain at its fall-through successor.
func chainBody(f, g bodyFn, size int) bodyFn {
	return func(c *Core, vpc int, limit sim.Time) (int, ctl) {
		nv, s := f(c, vpc, limit)
		if s != ctlNext || nv != vpc+size || c.at > limit {
			return nv, s
		}
		return g(c, nv, limit)
	}
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
		c.prof.Record(pc, period, int(kind), extra)
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

// compileBodyInst translates the instruction at pc into its loop-body
// closure plus its chaining metadata: the static pc advance of a clean
// fall-through (the run length for ALU runs, 1 otherwise) and whether the
// element is control flow (branch/jump/halt — chain terminators).
func (c *Core) compileBodyInst(pc int) (bodyFn, int, bool) {
	in := &c.dec[pc]
	size, ctrl := 1, false
	switch in.class {
	case isa.ClassBranch, isa.ClassJump, isa.ClassHalt:
		ctrl = true
	case isa.ClassALU:
		if n := int(c.aluRun[pc]); n > 1 {
			size = n
		}
	}
	return c.compileBodyElem(pc), size, ctrl
}

// compileBodyElem builds the closure itself. The arms mirror Core.step
// one-for-one for the pre-validated case; any timing or accounting drift
// between the two is caught by the equivalence soak and the differential
// fuzz harness.
func (c *Core) compileBodyElem(pc int) bodyFn {
	in := &c.dec[pc]
	switch in.class {
	case isa.ClassALU:
		if n := int(c.aluRun[pc]); n > 1 {
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
		inv := *in
		cycles := c.cfg.MulCycles
		return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
			t0 := c.at
			c.setReg(inv.rd, c.mul(&inv))
			c.retireCycles(vpc, t0, cycles)
			c.countInst(isa.ClassMul)
			return vpc + 1, ctlNext
		}

	case isa.ClassDiv:
		inv := *in
		cycles := c.cfg.DivCycles
		return func(c *Core, vpc int, _ sim.Time) (int, ctl) {
			t0 := c.at
			c.setReg(inv.rd, c.div(&inv))
			c.retireCycles(vpc, t0, cycles)
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
				if err := c.sys.Streams.In[slot].Adv(amount); err != nil {
					c.pc = vpc
					c.fail(err)
					return vpc, ctlHalted
				}
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
				c.prof.Record(vpc, period, int(StallExec), 0)
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
	cp := c.comp
	if n == whole && cp.blocks[pc] != nil {
		cp.blocks[pc](&c.regs)
	} else {
		for _, f := range cp.alu[pc : pc+n] {
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
	// budget short at iteration entry); the caller must fall back to
	// per-instruction stepping to guarantee forward progress.
	loopNoProgress loopExit = iota
	// loopProgress: >= 1 instruction ran; c.pc/c.at/stats are committed.
	loopProgress
	// loopBlockedExit: a load/store blocked mid-iteration (c.blockKind set,
	// c.pc at the blocked instruction), after possibly running instructions.
	loopBlockedExit
	// loopHaltedExit: the program halted (cleanly or by error).
	loopHaltedExit
)

// runLoop executes iterations of a recognized loop body while (a) the local
// clock has not passed limit, (b) the instruction budget admits a full
// iteration, and (c) BulkAvail/window-room pre-checks prove the iteration's
// stream operations cannot block. Under (c), every StreamLoad/Peek resolves
// at its issue time (the needed bytes were usable at iteration entry, and
// availability is monotone), so stream ops bypass the memhier wrappers while
// accruing the identical timing: busy one cycle plus StreamExtraCycles of
// stream-wait (in) or out-full (out) stall. Loads and stores still go
// through memhier.System — their timing is stateful (caches, DRAM) — and the
// per-instruction limit check inside the body reproduces precise stepping's
// stop-at-quantum behavior exactly.
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
	cp := c.comp
	body := cp.bodies[li.head]
	progress := false

	// Pure-ALU loops with a free back-edge have identical iterations: batch
	// every full iteration that fits the quantum and instruction budget in
	// one kernel call, then let the generic loop below run the partial tail
	// with per-instruction limit checks. Iteration m's jal issues at
	// c.at + n*m*period, so m full iterations fit iff n*m*period stays
	// within the quantum.
	if li.pureALU && c.jumpCycles == 0 {
		period := c.cfg.Clock.Period
		n := int64(li.end - li.head)
		m := int64(limit-c.at) / int64(period) / n
		if rem := (c.maxInsts - c.stats.Instructions) / (n + 1); m > rem {
			m = rem
		}
		if m > 0 {
			cp.kernels[li.head](&c.regs, m)
			nt := sim.Time(n*m) * period
			c.at += nt
			c.stats.BusyTime += nt
			c.stats.Instructions += (n + 1) * m
			c.stats.ByClass[isa.ClassALU] += n * m
			c.stats.ByClass[isa.ClassJump] += m
			if c.prof != nil {
				// m executions of the ALU body plus m zero-cycle back-edge
				// jals (this batch only runs when jumpCycles == 0, where
				// precise stepping records the jal as time-free too).
				c.prof.BulkRange(li.head, li.end, m)
				c.prof.Insts(li.end, m)
			}
			progress = true
		}
	}

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
		vpc := li.head
		for {
			if c.at > limit {
				c.pc = vpc
				return loopProgress
			}
			// nv is where execution stopped: past the chain on a clean
			// fall-through, at the blocked instruction on a block.
			nv, s := body[vpc-li.head](c, vpc, limit)
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
			if vpc == li.head {
				continue iterations
			}
			if vpc < li.head || vpc > li.end {
				c.pc = vpc // a forward branch left the body
				return loopProgress
			}
		}
	}
	c.pc = li.head
	if progress {
		return loopProgress
	}
	return loopNoProgress
}
