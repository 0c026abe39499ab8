package cpu

import (
	"sync"

	"assasin/internal/asm"
	"assasin/internal/sim"
)

// CoreProfile holds the per-pc guest-profile counters of one (program,
// clock) pair: retired instructions, issue time and per-StallKind stall
// time. The cores write through its methods; package kprof reads the
// fields to build block-structured profiles. All methods are O(1) with no
// allocation and are called only behind the `if c.prof != nil` guards,
// preserving the zero-cost contract when profiling is disabled.
type CoreProfile struct {
	Prog    *asm.Program
	Period  sim.Time
	Retired []int64                // per-pc retired instructions
	BusyPs  []int64                // per-pc issue time
	StallPs [NumStallKinds][]int64 // per-kind per-pc stall time
	// Bulk is a difference array over pcs: the compiled engine records a
	// straight ALU run of n instructions at pc as Bulk[pc]++ /
	// Bulk[pc+n]--. Its prefix sum yields per-pc execution counts; each
	// counted execution is exactly one retired instruction and one issue
	// cycle, matching precise stepping.
	Bulk []int64
}

// NewCoreProfile returns zeroed counters sized for prog.
func NewCoreProfile(prog *asm.Program, period sim.Time) *CoreProfile {
	n := len(prog.Insts)
	cp := &CoreProfile{
		Prog:    prog,
		Period:  period,
		Retired: make([]int64, n),
		BusyPs:  make([]int64, n),
		Bulk:    make([]int64, n+1),
	}
	for k := range cp.StallPs {
		cp.StallPs[k] = make([]int64, n)
	}
	return cp
}

// Record attributes one retired instruction at pc: its issue cycle (busy)
// plus any stall of the given kind.
func (p *CoreProfile) Record(pc int, busy sim.Time, kind StallKind, stall sim.Time) {
	p.Retired[pc]++
	p.BusyPs[pc] += int64(busy)
	if stall > 0 {
		p.StallPs[kind][pc] += int64(stall)
	}
}

// Stall attributes blocked-wait time at pc without retiring an instruction
// (the core re-dispatching after an external wake).
func (p *CoreProfile) Stall(pc int, kind StallKind, d sim.Time) {
	p.StallPs[kind][pc] += int64(d)
}

// Insts attributes one retired instruction with no cycle cost (zero-cycle
// control flow: branch-free taken branches and free jumps).
func (p *CoreProfile) Insts(pc int) {
	p.Retired[pc]++
}

// BulkALU records one execution of the straight ALU run [pc, pc+n).
func (p *CoreProfile) BulkALU(pc, n int) {
	p.Bulk[pc]++
	p.Bulk[pc+n]--
}

// Profiler collects the CoreProfiles of one run. ForProgram and Programs
// are cold paths (per program load / per run) and goroutine-safe; the
// recording methods belong to the simulation goroutine that owns the
// returned CoreProfile. The zero value is ready to use.
type Profiler struct {
	mu    sync.Mutex
	cores []*CoreProfile
}

// ForProgram returns the recording sink for a loaded program, creating it
// on first sight. Cores sharing a program (the usual per-request fan-out)
// share one sink, so per-pc totals sum over the whole run.
func (p *Profiler) ForProgram(prog *asm.Program, period sim.Time) *CoreProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, cp := range p.cores {
		if cp.Prog == prog && cp.Period == period {
			return cp
		}
	}
	cp := NewCoreProfile(prog, period)
	p.cores = append(p.cores, cp)
	return cp
}

// Programs returns the run's recording sinks in first-load order.
func (p *Profiler) Programs() []*CoreProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*CoreProfile(nil), p.cores...)
}
