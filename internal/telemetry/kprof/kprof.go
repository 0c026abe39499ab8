// Package kprof is the guest-kernel profiler: it attributes every core
// cycle and retired instruction of the simulated RV32IM offload kernels to
// a (kernel, basic block, pc) triple. The cpu package's two interpreter
// strategies record through the same per-program sink — Precise once
// per retired instruction inside the retire primitives, Compiled with
// one O(1) range update per bulk ALU dispatch (difference arrays resolved
// at snapshot time) — so a compiled-mode profile reconciles exactly, byte
// for byte after export, with a precise-mode profile of the same run.
//
// The per-pc counters themselves live in package cpu (cpu.Profiler and
// cpu.CoreProfile), which the cores write through; this package only reads
// them. Per pc the profiler splits time into the issue cycle (busy) plus
// the four stall classes of cpu.StallKind; the per-pc totals sum exactly to
// the attribution engine's per-class core times (test-enforced in
// internal/experiments). Snapshots group pcs into basic blocks computed
// from the program's control flow and export three ways: pprof
// profile.proto (pprof.go), folded flamegraph text, and a deterministic
// top-N hot-block table (export.go).
package kprof

import (
	"sort"
	"strings"

	"assasin/internal/cpu"
	"assasin/internal/isa"
)

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

// classPs returns the sample's time per class, indexed like cpu.ClassNames.
func (s PCSample) classPs() (t [cpu.NumClasses]int64) {
	t[0] = s.BusyPs
	t[1+cpu.StallMem] = s.MemWaitPs
	t[1+cpu.StallStreamWait] = s.StreamWaitPs
	t[1+cpu.StallOutFull] = s.OutFullPs
	t[1+cpu.StallExec] = s.ExecStallPs
	return t
}

// Totals sums the per-pc columns over the whole profile: retired
// instructions and the time per class, indexed like cpu.ClassNames (the
// reconciliation invariant checks these against the attribution engine's
// class times).
func (p *Profile) Totals() (insts int64, ps [cpu.NumClasses]int64) {
	for _, k := range p.Kernels {
		for _, b := range k.Blocks {
			for _, s := range b.PCs {
				insts += s.Insts
				for c, v := range s.classPs() {
					ps[c] += v
				}
			}
		}
	}
	return insts, ps
}

// Snapshot merges the run's recording sinks (difference arrays resolved,
// same-program sinks summed by kernel name) into a deterministic Profile:
// kernels sorted by name, blocks and pcs ascending, all-zero pcs omitted.
func Snapshot(p *cpu.Profiler) *Profile {
	out := &Profile{}
	type key struct {
		name string
		n    int
	}
	merged := make(map[key]*cpu.CoreProfile)
	var order []key
	for _, cp := range p.Programs() {
		if out.PeriodPs == 0 {
			out.PeriodPs = int64(cp.Period)
		}
		name := cp.Prog.Name
		if name == "" {
			name = "kernel"
		}
		k := key{name, len(cp.Prog.Insts)}
		dst := merged[k]
		if dst == nil {
			dst = cpu.NewCoreProfile(cp.Prog, 0)
			merged[k] = dst
			order = append(order, k)
		}
		var run int64
		for pc := range cp.Retired {
			run += cp.Bulk[pc]
			dst.Retired[pc] += cp.Retired[pc] + run
			dst.BusyPs[pc] += cp.BusyPs[pc] + run*int64(cp.Period)
			for s := range cp.StallPs {
				dst.StallPs[s][pc] += cp.StallPs[s][pc]
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
func kernelProfile(name string, cp *cpu.CoreProfile) KernelProfile {
	kp := KernelProfile{Kernel: name}
	starts := blockStarts(cp.Prog.Insts)
	for i, start := range starts {
		end := len(cp.Prog.Insts)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		b := BlockProfile{Start: start, End: end}
		for pc := start; pc < end; pc++ {
			s := PCSample{
				PC:           pc,
				Insts:        cp.Retired[pc],
				BusyPs:       cp.BusyPs[pc],
				MemWaitPs:    cp.StallPs[cpu.StallMem][pc],
				StreamWaitPs: cp.StallPs[cpu.StallStreamWait][pc],
				OutFullPs:    cp.StallPs[cpu.StallOutFull][pc],
				ExecStallPs:  cp.StallPs[cpu.StallExec][pc],
			}
			if s.Insts == 0 && s.TotalPs() == 0 {
				continue
			}
			s.Sym = strings.TrimSpace(cp.Prog.Line(pc))
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
