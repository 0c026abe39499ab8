// Package kprof is the guest-kernel profiler: it attributes every core
// cycle and retired instruction of the simulated RV32IM offload kernels to
// a (kernel, basic block, pc) triple. The cpu package's two interpreter
// strategies record through the same per-program sink — Precise once
// per retired instruction inside the retire primitives, Compiled with
// one O(1) range update per bulk ALU dispatch (difference arrays resolved
// at snapshot time) — so a compiled-mode profile reconciles exactly, byte
// for byte after export, with a precise-mode profile of the same run.
//
// Per pc the profiler splits time into the issue cycle (busy) plus the
// four stall classes of cpu.StallKind; the per-pc totals sum exactly to
// the attribution engine's per-class core times (test-enforced in
// internal/experiments). Snapshots group pcs into basic blocks computed
// from the program's control flow and export three ways: pprof
// profile.proto (pprof.go), folded flamegraph text, and a deterministic
// top-N hot-block table (export.go).
package kprof

import (
	"sort"
	"strings"
	"sync"

	"assasin/internal/asm"
	"assasin/internal/isa"
	"assasin/internal/sim"
)

// Stall-class indices, value-identical to cpu.StallKind (the cpu package
// imports kprof, so the shared ordering is pinned here and asserted by a
// test on the cpu side).
const (
	StallMem = iota
	StallStreamWait
	StallOutFull
	StallExec
	NumStallKinds
)

// CoreProfile is the per-(program, clock) recording sink the cores write
// through. All methods are O(1) with no allocation; they are called only
// behind the cpu package's `if c.prof != nil` guards, preserving the
// zero-cost contract when profiling is disabled.
type CoreProfile struct {
	prog   *asm.Program
	period sim.Time
	insts  []int64                // per-pc retired instructions
	busy   []int64                // per-pc issue time, ps
	stall  [NumStallKinds][]int64 // per-class per-pc stall time, ps
	// bulk is a difference array over pcs: the compiled engine
	// records a straight ALU run of n instructions at pc as bulk[pc]++ /
	// bulk[pc+n]--, and a pure-ALU loop batch of m iterations as a single
	// range update. The prefix sum at snapshot time yields per-pc
	// execution counts; each counted execution is exactly one retired
	// instruction and one issue cycle, matching precise stepping.
	bulk []int64
}

// Record attributes one retired instruction at pc: its issue cycle (busy)
// plus any stall of the given class.
func (p *CoreProfile) Record(pc int, busy sim.Time, kind int, stall sim.Time) {
	p.insts[pc]++
	p.busy[pc] += int64(busy)
	if stall > 0 {
		p.stall[kind][pc] += int64(stall)
	}
}

// Stall attributes blocked-wait time at pc without retiring an instruction
// (the core re-dispatching after an external wake).
func (p *CoreProfile) Stall(pc, kind int, d sim.Time) {
	p.stall[kind][pc] += int64(d)
}

// Insts attributes n retired instructions with no cycle cost (zero-cycle
// control flow: branch-free taken branches and free jumps).
func (p *CoreProfile) Insts(pc int, n int64) {
	p.insts[pc] += n
}

// BulkALU records one execution of the straight ALU run [pc, pc+n).
func (p *CoreProfile) BulkALU(pc, n int) {
	p.bulk[pc]++
	p.bulk[pc+n]--
}

// BulkRange records m executions of the ALU range [head, end).
func (p *CoreProfile) BulkRange(head, end int, m int64) {
	p.bulk[head] += m
	p.bulk[end] -= m
}

// Profiler collects the CoreProfiles of one run. ForProgram and Snapshot
// are cold paths (per program load / per run) and goroutine-safe; the
// recording methods above belong to the simulation goroutine that owns the
// returned CoreProfile.
type Profiler struct {
	mu    sync.Mutex
	cores []*CoreProfile
}

// New returns an empty profiler.
func New() *Profiler { return &Profiler{} }

// ForProgram returns the recording sink for a loaded program, creating it
// on first sight. Cores sharing a program (the usual per-request fan-out)
// share one sink, so per-pc totals sum over the whole run.
func (p *Profiler) ForProgram(prog *asm.Program, period sim.Time) *CoreProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cp := range p.cores {
		if cp.prog == prog && cp.period == period {
			return cp
		}
	}
	n := len(prog.Insts)
	cp := &CoreProfile{
		prog:   prog,
		period: period,
		insts:  make([]int64, n),
		busy:   make([]int64, n),
		bulk:   make([]int64, n+1),
	}
	for k := range cp.stall {
		cp.stall[k] = make([]int64, n)
	}
	p.cores = append(p.cores, cp)
	return cp
}

// PCSample is one program counter's attribution.
type PCSample struct {
	PC  int    `json:"pc"`
	Sym string `json:"sym"` // shared with asm.Program.Disassemble via Line
	// Insts counts retired instructions; the time columns are picoseconds.
	Insts        int64 `json:"insts"`
	BusyPs       int64 `json:"busy_ps"`
	ExecStallPs  int64 `json:"exec_stall_ps,omitempty"`
	StreamWaitPs int64 `json:"stream_wait_ps,omitempty"`
	OutFullPs    int64 `json:"out_full_ps,omitempty"`
	MemWaitPs    int64 `json:"mem_wait_ps,omitempty"`
}

// TotalPs is busy plus all stall time attributed to the pc.
func (s PCSample) TotalPs() int64 {
	return s.BusyPs + s.ExecStallPs + s.StreamWaitPs + s.OutFullPs + s.MemWaitPs
}

// BlockProfile aggregates the samples of one basic block [Start, End).
type BlockProfile struct {
	Start        int        `json:"start"`
	End          int        `json:"end"`
	Insts        int64      `json:"insts"`
	BusyPs       int64      `json:"busy_ps"`
	ExecStallPs  int64      `json:"exec_stall_ps,omitempty"`
	StreamWaitPs int64      `json:"stream_wait_ps,omitempty"`
	OutFullPs    int64      `json:"out_full_ps,omitempty"`
	MemWaitPs    int64      `json:"mem_wait_ps,omitempty"`
	PCs          []PCSample `json:"pcs"`
}

// TotalPs is busy plus all stall time attributed to the block.
func (b BlockProfile) TotalPs() int64 {
	return b.BusyPs + b.ExecStallPs + b.StreamWaitPs + b.OutFullPs + b.MemWaitPs
}

// KernelProfile is one kernel program's attribution, partitioned into
// basic blocks. Empty blocks (never executed) are omitted.
type KernelProfile struct {
	Kernel string         `json:"kernel"`
	Blocks []BlockProfile `json:"blocks"`
}

// Profile is a finished snapshot: everything needed to render the pprof,
// folded, table, and JSON exports without the live program. The "kernels"
// key doubles as the diff loader's format marker.
type Profile struct {
	Label    string          `json:"label,omitempty"`
	PeriodPs int64           `json:"period_ps,omitempty"`
	Kernels  []KernelProfile `json:"kernels"`
}

// Totals sums the per-pc columns over the whole profile (the reconciliation
// invariant checks these against the attribution engine's class times).
func (p *Profile) Totals() (insts, busyPs, execPs, streamPs, outPs, memPs int64) {
	for _, k := range p.Kernels {
		for _, b := range k.Blocks {
			for _, s := range b.PCs {
				insts += s.Insts
				busyPs += s.BusyPs
				execPs += s.ExecStallPs
				streamPs += s.StreamWaitPs
				outPs += s.OutFullPs
				memPs += s.MemWaitPs
			}
		}
	}
	return
}

// Snapshot merges the run's CoreProfiles (difference arrays resolved,
// same-program sinks summed by kernel name) into a deterministic Profile:
// kernels sorted by name, blocks and pcs ascending, all-zero pcs omitted.
func (p *Profiler) Snapshot() *Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := &Profile{}
	type key struct {
		name string
		n    int
	}
	merged := make(map[key]*CoreProfile)
	var order []key
	for _, cp := range p.cores {
		if out.PeriodPs == 0 {
			out.PeriodPs = int64(cp.period)
		}
		name := cp.prog.Name
		if name == "" {
			name = "kernel"
		}
		k := key{name, len(cp.prog.Insts)}
		dst := merged[k]
		if dst == nil {
			n := len(cp.prog.Insts)
			dst = &CoreProfile{
				prog:  cp.prog,
				insts: make([]int64, n),
				busy:  make([]int64, n),
			}
			for s := range dst.stall {
				dst.stall[s] = make([]int64, n)
			}
			merged[k] = dst
			order = append(order, k)
		}
		var run int64
		for pc := range cp.insts {
			run += cp.bulk[pc]
			dst.insts[pc] += cp.insts[pc] + run
			dst.busy[pc] += cp.busy[pc] + run*int64(cp.period)
			for s := range cp.stall {
				dst.stall[s][pc] += cp.stall[s][pc]
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].name != order[j].name {
			return order[i].name < order[j].name
		}
		return order[i].n < order[j].n
	})
	for _, k := range order {
		out.Kernels = append(out.Kernels, kernelProfile(k.name, merged[k]))
	}
	return out
}

// kernelProfile assembles one kernel's block-structured profile.
func kernelProfile(name string, cp *CoreProfile) KernelProfile {
	kp := KernelProfile{Kernel: name}
	starts := blockStarts(cp.prog.Insts)
	for i, start := range starts {
		end := len(cp.prog.Insts)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		b := BlockProfile{Start: start, End: end}
		for pc := start; pc < end; pc++ {
			s := PCSample{
				PC:           pc,
				Insts:        cp.insts[pc],
				BusyPs:       cp.busy[pc],
				MemWaitPs:    cp.stall[StallMem][pc],
				StreamWaitPs: cp.stall[StallStreamWait][pc],
				OutFullPs:    cp.stall[StallOutFull][pc],
				ExecStallPs:  cp.stall[StallExec][pc],
			}
			if s.Insts == 0 && s.TotalPs() == 0 {
				continue
			}
			s.Sym = strings.TrimSpace(cp.prog.Line(pc))
			b.Insts += s.Insts
			b.BusyPs += s.BusyPs
			b.ExecStallPs += s.ExecStallPs
			b.StreamWaitPs += s.StreamWaitPs
			b.OutFullPs += s.OutFullPs
			b.MemWaitPs += s.MemWaitPs
			b.PCs = append(b.PCs, s)
		}
		if len(b.PCs) > 0 {
			kp.Blocks = append(kp.Blocks, b)
		}
	}
	return kp
}

// blockStarts computes basic-block leaders: pc 0, every branch/jump
// target, and every pc following a control-flow instruction.
func blockStarts(insts []isa.Inst) []int {
	if len(insts) == 0 {
		return nil
	}
	lead := make([]bool, len(insts))
	lead[0] = true
	for i, in := range insts {
		var target, split bool
		switch in.Op.Class() {
		case isa.ClassBranch:
			target, split = true, true
		case isa.ClassJump:
			target, split = in.Op == isa.OpJal, true
		case isa.ClassHalt:
			split = true
		}
		if target {
			if t := i + int(in.Imm); t >= 0 && t < len(insts) {
				lead[t] = true
			}
		}
		if split && i+1 < len(insts) {
			lead[i+1] = true
		}
	}
	var starts []int
	for pc, l := range lead {
		if l {
			starts = append(starts, pc)
		}
	}
	return starts
}

// Labeled pairs one run's label with its snapshot for merging.
type Labeled struct {
	Label   string
	Profile *Profile
}

// MergeLabeled combines per-run profiles into one, qualifying kernel names
// with the run labels (a single-kernel run's kernel takes the label
// outright) so a bench fan-out's profile distinguishes kernel×arch runs.
func MergeLabeled(runs []Labeled) *Profile {
	out := &Profile{}
	for _, r := range runs {
		if r.Profile == nil {
			continue
		}
		if out.PeriodPs == 0 {
			out.PeriodPs = r.Profile.PeriodPs
		}
		for _, k := range r.Profile.Kernels {
			kk := k
			switch {
			case r.Label == "":
			case len(r.Profile.Kernels) == 1:
				kk.Kernel = r.Label
			default:
				kk.Kernel = r.Label + "/" + k.Kernel
			}
			out.Kernels = append(out.Kernels, kk)
		}
	}
	sort.SliceStable(out.Kernels, func(i, j int) bool {
		return out.Kernels[i].Kernel < out.Kernels[j].Kernel
	})
	return out
}
