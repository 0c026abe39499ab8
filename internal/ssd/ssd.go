// Package ssd assembles complete computational SSDs: the flash array, FTL,
// SSD DRAM, crossbar, firmware engine, and compute engines with the
// per-configuration memory hierarchies of Table IV (Baseline, UDP,
// Prefetch, AssasinSp, AssasinSb, AssasinSb$), one row each in the spec
// table of arch.go, plus the channel-local alternative architecture of
// Fig. 7 used in the skew study.
package ssd

import (
	"fmt"
	"log/slog"

	"assasin/internal/asm"
	"assasin/internal/cpu"
	"assasin/internal/crossbar"
	"assasin/internal/firmware"
	"assasin/internal/flash"
	"assasin/internal/ftl"
	"assasin/internal/memhier"
	"assasin/internal/sim"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/reqtrace"
	"assasin/internal/telemetry/timeline"
)

// Options configures an SSD instance. The flash geometry is not an option:
// every SSD builds the evaluation array, DefaultFlashConfig, and records it
// in SSD.Flash.
type Options struct {
	Arch  Arch
	Cores int
	// TimingAdjusted applies the Fig. 20/21 circuit results each
	// configuration's row records: the stream-buffer cores clock 11%
	// faster and AssasinSp's scratchpad accesses take 2 cycles.
	TimingAdjusted bool
	// ChannelLocal replaces the crossbar with fixed per-channel compute
	// (the Fig. 7 application-specific alternative); BuildTasks then splits
	// work by physical channel.
	ChannelLocal bool
	// Layout is the FTL placement policy (nil = striped).
	Layout ftl.Policy
	// DRAM overrides the DRAM model (zero value = paper's 8 GB/s LPDDR5).
	DRAM memhier.DRAMConfig
	// WindowPages is P, the per-slot input window in flash pages. Zero
	// selects the architecture's default from its Table IV row.
	WindowPages int
	// Exec is the equivalence-oracle selector for the core interpreter:
	// the zero value cpu.ExecCompiled runs the shared cpu.Program's
	// threaded code; cpu.ExecPrecise steps one instruction at a time, the
	// reference semantics the equivalence tests compare against. Both
	// produce byte-identical results.
	Exec cpu.ExecMode
	// Telemetry, when non-nil, enables instrumentation across every
	// component (scheduler, cores, stream buffers, crossbar, flash, FTL,
	// firmware): counters/gauges/histograms plus the sim-clock event trace.
	// Nil (the default) disables everything at nil-pointer-branch cost.
	// The sink is not goroutine-safe: do not share one sink between SSDs
	// simulated concurrently.
	Telemetry *telemetry.Sink
	// Timeline, when non-nil, attaches a sim-time sampler to the SSD's
	// scheduler: every dispatch ticks it, and a per-class cycle-accounting
	// probe feeds the "class/<name>" series the phase segmenter consumes.
	// Like Telemetry, the sampler belongs to this SSD's simulation
	// goroutine. Nil disables sampling at nil-pointer-branch cost.
	Timeline *timeline.Sampler
	// Requests, when non-nil, assigns every offload (and NVMe command, via
	// internal/nvme) a RequestID at submission and accumulates a causal
	// span record through the firmware data plane and the cores' cycle
	// accounting; completed records carry a critical path whose segments
	// sum exactly to the request latency. Like Telemetry, the tracer
	// belongs to this SSD's simulation goroutine. Nil disables request
	// tracing at nil-pointer-branch cost.
	Requests *reqtrace.Tracer
	// KProf, when non-nil, attaches the guest-kernel profiler to every
	// compute core: each retired instruction's issue cycle and every
	// stall is attributed to its (kernel, pc), with the compiled
	// engine recording bulk ALU dispatches as O(1) range updates. Like
	// Telemetry, the profiler belongs to this SSD's simulation goroutine.
	// Nil disables profiling at nil-pointer-branch cost.
	KProf *cpu.Profiler
	// Log, when non-nil, receives offload lifecycle events: request
	// submission and completion at Debug level. Handlers must be
	// goroutine-safe when SSDs run concurrently.
	Log *slog.Logger
	// OnAdvance, when non-nil, is chained onto the scheduler's dispatch
	// hook (after the timeline tick, when both are set) with the committed
	// sim horizon in picoseconds. Sliding-window aggregators and the SLO
	// engine hook here; nil disables at nil-pointer-branch cost.
	OnAdvance func(nowPs int64)
}

// DefaultFlashConfig is the evaluation geometry: 8 channels × 1 GB/s,
// 4 KiB pages, enough chips per channel that the bus stays the bottleneck.
func DefaultFlashConfig() flash.Config {
	return flash.Config{
		Channels:         8,
		ChipsPerChannel:  16,
		BlocksPerChip:    256,
		PagesPerBlock:    64,
		PageSize:         4 << 10,
		ChannelBandwidth: 1e9,
		ReadLatency:      25 * sim.Microsecond,
		ProgramLatency:   200 * sim.Microsecond,
		EraseLatency:     2 * sim.Millisecond,
	}
}

// SSD is one assembled computational SSD.
type SSD struct {
	Opt Options
	// Flash is the array's geometry, DefaultFlashConfig.
	Flash   flash.Config
	Sched   *sim.Scheduler
	DRAM    *memhier.DRAM
	Array   *flash.Array
	FTL     *ftl.FTL
	Xbar    *crossbar.Crossbar
	Cores   []*cpu.Core
	Systems []*memhier.System

	nextDataLPA int
	streamTel   *memhier.StreamTel // shared stream-buffer bundle; nil when disabled
	streamsUsed bool               // an offload has been set up on the cores' stream buffers
	reqLabel    string             // label for the next traced offload request
	reqTenant   string             // tenant for the next traced offload request
}

// SetRequestLabel names the next offload request in the request trace
// (RunKernel sets the kernel name; nvme sets the opcode). Cleared after use.
func (s *SSD) SetRequestLabel(label string) { s.reqLabel = label }

// SetRequestTenant tags the next offload request's trace record with a
// tenant for per-tenant SLO accounting. Cleared after use.
func (s *SSD) SetRequestTenant(tenant string) { s.reqTenant = tenant }

// New assembles an SSD.
func New(opt Options) *SSD {
	if opt.Cores <= 0 {
		opt.Cores = 8
	}
	if opt.DRAM.BandwidthBytesPerSec == 0 {
		opt.DRAM = memhier.DefaultDRAMConfig()
	}
	spec := opt.Arch.spec()
	if opt.WindowPages <= 0 {
		opt.WindowPages = spec.windowPages
	}

	s := &SSD{Opt: opt, Flash: DefaultFlashConfig(), Sched: sim.NewScheduler()}
	s.DRAM = memhier.NewDRAM(opt.DRAM)
	s.Array = flash.New(s.Flash)
	s.FTL = ftl.New(s.Array, opt.Layout)
	if !opt.ChannelLocal {
		s.Xbar = crossbar.New(crossbar.DefaultConfig(opt.Cores))
	}
	if tel := opt.Telemetry; tel != nil {
		s.Sched.Tel = sim.NewSchedTel(tel)
		s.Array.Tel = flash.NewTel(tel)
		s.FTL.Tel = ftl.NewTel(tel)
		if s.Xbar != nil {
			s.Xbar.Tel = crossbar.NewTel(tel)
		}
		s.streamTel = memhier.NewStreamTel(tel)
	}
	if tl := opt.Timeline; tl != nil {
		tl.AddProbe(s.classProbe)
	}
	switch tl, oa := opt.Timeline, opt.OnAdvance; {
	case tl != nil && oa != nil:
		s.Sched.OnAdvance = func(nowPs int64) {
			tl.Tick(nowPs)
			oa(nowPs)
		}
	case tl != nil:
		s.Sched.OnAdvance = tl.Tick
	case oa != nil:
		s.Sched.OnAdvance = oa
	}

	clock := sim.NewClock(1e9)
	spCycles := spec.spCycles
	if opt.TimingAdjusted {
		if spec.adjPeriod > 0 {
			clock = sim.Clock{Period: spec.adjPeriod}
		}
		spCycles = spec.adjSpCycles
	}

	for i := 0; i < opt.Cores; i++ {
		sys := &memhier.System{
			Clock:   clock,
			DRAM:    s.DRAM,
			Backing: memhier.NewSparseMem(),
			Streams: s.newStreams(),
			Client:  memhier.DRAMClient{Name: fmt.Sprintf("core%d", i)},
		}
		if spec.spBytes > 0 {
			sys.Scratchpad = memhier.NewScratchpad(spec.spBytes)
			sys.Scratchpad.AccessCycles = spCycles
		}
		if spec.l1d.Size > 0 {
			var next memhier.NextLevel = memhier.DRAMLevel{DRAM: s.DRAM}
			if spec.l2.Size > 0 {
				next = memhier.NewCache(spec.l2, next)
			}
			l1 := memhier.NewCache(spec.l1d, next)
			if spec.prefetchDegree > 0 {
				l1.AttachPrefetcher(memhier.NewPrefetcher(spec.prefetchDegree))
			}
			sys.L1 = l1
		}
		ccfg := cpu.DefaultConfig(fmt.Sprintf("%s-core%d", opt.Arch, i))
		ccfg.Clock = clock
		ccfg.BranchFree = spec.branchFree
		ccfg.Exec = opt.Exec
		eng := cpu.New(ccfg, sys)

		if opt.Telemetry != nil {
			eng.AttachTelemetry(opt.Telemetry)
		}
		if opt.KProf != nil {
			eng.AttachKProf(opt.KProf)
		}
		s.Cores = append(s.Cores, eng)
		s.Systems = append(s.Systems, sys)
	}
	return s
}

// classTimes sums the per-core cycle accounting per class, in picoseconds,
// indexed like cpu.ClassNames.
func (s *SSD) classTimes() (t [cpu.NumClasses]int64) {
	for _, c := range s.Cores {
		st := c.Stats()
		for i, ps := range st.ClassTimes() {
			t[i] += ps
		}
	}
	return t
}

// classSeries and classGauges are the per-class timeline series keys and
// gauge names, indexed like cpu.ClassNames and built once so sampling and
// publishing do not allocate them.
var classSeries, classGauges = func() (series, gauges [cpu.NumClasses]string) {
	for i, name := range cpu.ClassNames {
		series[i] = timeline.ClassPrefix + name
		gauges[i] = name + "_ps"
	}
	return series, gauges
}()

// classProbe feeds the timeline sampler the live cumulative class times, as
// "class/<name>" series (the phase segmenter's input).
func (s *SSD) classProbe(emit func(key string, cumulative int64)) {
	for i, ps := range s.classTimes() {
		emit(classSeries[i], ps)
	}
}

// PublishStats snapshots cumulative component state — per-channel flash
// busy time and bytes, crossbar port busy/bytes, FTL write/GC totals, DRAM
// traffic, and the aggregated L1 cache hit/miss counters — into telemetry
// gauges. Inline-instrumented counters (stream pushes, crossbar grants,
// scheduler dispatches...) accumulate as the simulation runs and need no
// publish step; call this once after the runs of interest. No-op without a
// telemetry sink.
func (s *SSD) PublishStats() {
	tel := s.Opt.Telemetry
	if tel == nil {
		return
	}
	for c := 0; c < s.Flash.Channels; c++ {
		tel.Gauge("flash", fmt.Sprintf("ch%d_busy_ps", c)).Set(int64(s.Array.ChannelBusy(c)))
		tel.Gauge("flash", fmt.Sprintf("ch%d_bytes", c)).Set(s.Array.ChannelBytes(c))
	}
	if s.Xbar != nil {
		for p := 0; p < s.Xbar.Config().Ports; p++ {
			tel.Gauge("xbar", fmt.Sprintf("port%d_busy_ps", p)).Set(int64(s.Xbar.PortBusy(p)))
			tel.Gauge("xbar", fmt.Sprintf("port%d_bytes", p)).Set(s.Xbar.PortBytes(p))
		}
	}
	fs := s.FTL.Stats()
	tel.Gauge("ftl", "host_writes").Set(fs.HostWrites)
	tel.Gauge("ftl", "gc_writes").Set(fs.GCWrites)
	tel.Gauge("ftl", "erases").Set(fs.Erases)
	tel.Gauge("ftl", "gc_invocations").Set(fs.GCInvocations)
	tel.Gauge("dram", "total_bytes").Set(s.DRAM.TotalBytes())
	// Per-class core time aggregates: the same numbers the attribution
	// report derives from CoreStats, published as gauges so metrics-only
	// exports (-metrics files, BENCH envelopes) carry enough for the diff
	// engine to rank class deltas without a report.
	for i, ps := range s.classTimes() {
		tel.Gauge("class", classGauges[i]).Set(ps)
	}
	// Unify the existing per-cache hit/miss stats into the metrics export,
	// aggregated across cores (cached architectures only).
	var cs memhier.CacheStats
	withCache := 0
	for _, sys := range s.Systems {
		if sys.L1 == nil {
			continue
		}
		withCache++
		st := sys.L1.Stats()
		cs.Hits += st.Hits
		cs.Misses += st.Misses
		cs.Evictions += st.Evictions
		cs.Writebacks += st.Writebacks
		cs.PrefetchIssued += st.PrefetchIssued
		cs.PrefetchUseful += st.PrefetchUseful
	}
	if withCache > 0 {
		tel.Gauge("cache", "l1_hits").Set(cs.Hits)
		tel.Gauge("cache", "l1_misses").Set(cs.Misses)
		tel.Gauge("cache", "l1_evictions").Set(cs.Evictions)
		tel.Gauge("cache", "l1_writebacks").Set(cs.Writebacks)
		tel.Gauge("cache", "l1_prefetch_issued").Set(cs.PrefetchIssued)
		tel.Gauge("cache", "l1_prefetch_useful").Set(cs.PrefetchUseful)
	}
}

// DataPath returns the firmware data path for this architecture.
func (s *SSD) DataPath() firmware.DataPath { return s.Opt.Arch.spec().path }

// newStreams returns a fresh stream buffer at the configured geometry,
// wired to the shared telemetry bundle (nil when telemetry is off).
func (s *SSD) newStreams() *memhier.StreamBuffer {
	sb := memhier.NewStreamBuffer(defaultStreamSlots, s.Opt.WindowPages, s.Opt.Arch.spec().outWindowPages, s.Flash.PageSize)
	sb.AttachTel(s.streamTel)
	return sb
}

// InstallBytes writes data into the flash array as a fresh dataset (no
// simulated time) and returns the logical pages backing it. It copies data
// once, into one page-rounded slab whose pages the array keeps, so the
// caller may reuse data afterwards. Data that does not fit the logical
// pages left is rejected before anything is installed.
func (s *SSD) InstallBytes(data []byte) ([]int, error) {
	ps := s.Flash.PageSize
	n := (len(data) + ps - 1) / ps
	if left := s.FTL.UserPages() - s.nextDataLPA; n > left {
		return nil, fmt.Errorf("ssd: install of %d pages exceeds the %d logical pages left", n, left)
	}
	slab := make([]byte, n*ps)
	copy(slab, data)
	lpas := make([]int, n)
	for i := range lpas {
		lpas[i] = s.nextDataLPA + i
		if err := s.FTL.Install(lpas[i], slab[i*ps:(i+1)*ps:(i+1)*ps]); err != nil {
			return nil, err
		}
	}
	s.nextDataLPA += n
	return lpas, nil
}

// ReserveLPAs reserves logical pages for output streams (OutToFlash).
func (s *SSD) ReserveLPAs(n int) int {
	start := s.nextDataLPA
	s.nextDataLPA += n
	return start
}

// TaskSpec describes one core's share of an offload.
type TaskSpec struct {
	Program *asm.Program
	Inputs  []firmware.StreamSpec
	Outputs []firmware.OutTarget
	// Regs are initial register values (argument passing).
	Regs map[asm.Reg]uint32
	// Scratch is preloaded into the scratchpad (function state) for
	// scratchpad architectures; for cached architectures it is placed in
	// DRAM at StateBase instead.
	Scratch []byte
	// StateBase is where Scratch was assumed to live when the program was
	// built (memhier.ScratchpadBase or a DRAM address).
	StateBase uint32
}

// Result summarizes one offload run.
type Result struct {
	// Duration is the request completion time (last page drained).
	Duration sim.Time
	// InputBytes is the total stream bytes delivered to cores.
	InputBytes int64
	// Outputs[i][j] holds collected output bytes of task i, slot j.
	Outputs [][][]byte
	// CoreStats per task.
	CoreStats []cpu.Stats
	// FinalRegs per task (for kernels returning results in registers).
	FinalRegs [][]uint32
}

// Throughput returns input bytes per second over the run.
func (r *Result) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.InputBytes) / r.Duration.Seconds()
}

// RunOffload executes one computational-storage request across the SSD's
// cores. Each TaskSpec is assigned to the same-indexed core. Requests may
// be submitted back to back on the same SSD: the firmware resets core and
// stream-buffer state between requests (Listing 1's reset semantics) while
// the simulated clock, flash contents and FTL state carry forward.
func (s *SSD) RunOffload(tasks []TaskSpec, deadline sim.Time) (*Result, error) {
	if len(tasks) > len(s.Cores) {
		return nil, fmt.Errorf("ssd: %d tasks for %d cores", len(tasks), len(s.Cores))
	}
	if deadline <= 0 {
		deadline = 100 * sim.Second
	}

	engine := firmware.New(firmware.Config{
		PageSize: s.Flash.PageSize,
		Path:     s.DataPath(),
	}, s.Sched, s.FTL, s.DRAM, s.Xbar)
	engine.Tel = firmware.NewTel(s.Opt.Telemetry)

	start := s.Sched.Now()
	req := s.Opt.Requests.Begin("offload", s.reqLabel, int64(start))
	req.SetTenant(s.reqTenant)
	s.reqLabel, s.reqTenant = "", ""
	engine.Req = req
	// Per-core baselines at submission: cumulative stats and local clocks,
	// so the request's core-side accounting is an exact delta.
	var baseStats []cpu.Stats
	var baseLocal []sim.Time
	if req != nil {
		for i := range tasks {
			baseStats = append(baseStats, s.Cores[i].Stats())
			baseLocal = append(baseLocal, s.Cores[i].LocalTime())
		}
	}
	reqDone := false
	defer func() {
		if req != nil && !reqDone {
			s.Opt.Requests.Abort(req) // failed request: recycle, don't record
		}
	}()
	var fwTasks []firmware.Task
	var totalIn int64
	// Each distinct program is translated once and shared by its cores;
	// the memo's programs, once per process.
	progs := map[*asm.Program]*cpu.Program{}
	for i, t := range tasks {
		core := s.Cores[i]
		// Fresh stream-buffer state per request (the firmware resets the
		// core's streams along with its PC and pipeline). The first
		// request runs on the buffers New built.
		if s.streamsUsed {
			s.Systems[i].Streams = s.newStreams()
		}
		if progs[t.Program] == nil {
			progs[t.Program] = programs.translation(t.Program)
		}
		core.LoadProgram(progs[t.Program])
		for r, v := range t.Regs {
			core.SetReg(r, v)
		}
		if len(t.Scratch) > 0 {
			if t.StateBase >= memhier.DRAMBase || t.StateBase < memhier.ScratchpadBase {
				s.Systems[i].Backing.WriteRange(t.StateBase, t.Scratch)
			} else {
				if s.Systems[i].Scratchpad == nil {
					return nil, fmt.Errorf("ssd: task %d preloads scratchpad but %s has none", i, s.Opt.Arch)
				}
				if err := s.Systems[i].Scratchpad.LoadBytes(t.StateBase-memhier.ScratchpadBase, t.Scratch); err != nil {
					return nil, err
				}
			}
		}
		for _, in := range t.Inputs {
			totalIn += in.TotalBytes()
		}
		fwTasks = append(fwTasks, firmware.Task{
			Core:    core,
			CoreID:  i,
			Inputs:  t.Inputs,
			Outputs: t.Outputs,
		})
		s.Sched.Add(core)
	}
	s.streamsUsed = true
	if err := engine.Submit(fwTasks); err != nil {
		return nil, err
	}
	if s.Opt.Log != nil {
		s.Opt.Log.Debug("offload submitted",
			"arch", s.Opt.Arch.String(), "tasks", len(tasks), "input_bytes", totalIn)
	}
	if _, err := s.Sched.Run(deadline); err != nil {
		// A data-plane failure leaves cores waiting forever; surface the
		// root cause rather than the resulting scheduler deadlock.
		if ferr := engine.Err(); ferr != nil {
			return nil, fmt.Errorf("ssd: %s firmware: %w", s.Opt.Arch, ferr)
		}
		return nil, fmt.Errorf("ssd: %s: %w", s.Opt.Arch, err)
	}
	for i := range tasks {
		if err := s.Cores[i].Err(); err != nil {
			return nil, fmt.Errorf("ssd: %s core %d: %w", s.Opt.Arch, i, err)
		}
	}
	if err := engine.Err(); err != nil {
		return nil, fmt.Errorf("ssd: %s firmware: %w", s.Opt.Arch, err)
	}
	if !engine.Done() {
		return nil, fmt.Errorf("ssd: %s: request incomplete at deadline %v", s.Opt.Arch, deadline)
	}

	dur := engine.CompletionTime() - start
	if dur < 0 {
		dur = 0
	}
	if req != nil {
		for i := range tasks {
			st := s.Cores[i].Stats()
			base := baseStats[i]
			delta, from := st.ClassTimes(), base.ClassTimes()
			for c := range delta {
				delta[c] -= from[c]
			}
			req.SetCoreDelta(i, int64(baseLocal[i]), delta,
				st.Instructions-base.Instructions,
				st.Dispatches-base.Dispatches)
		}
		complete := int64(sim.MaxT(engine.CompletionTime(), start))
		if tel := s.Opt.Telemetry; tel != nil {
			tel.Track("fw").FlowEnd("req", complete, int64(req.ID))
		}
		s.Opt.Requests.Complete(req, complete)
		reqDone = true
	}
	if s.Opt.Log != nil {
		s.Opt.Log.Debug("offload complete",
			"arch", s.Opt.Arch.String(), "duration_ps", int64(dur), "input_bytes", totalIn)
	}
	res := &Result{Duration: dur, InputBytes: totalIn}
	for i, t := range tasks {
		var outs [][]byte
		for j := range t.Outputs {
			outs = append(outs, engine.Collected(i, j))
		}
		res.Outputs = append(res.Outputs, outs)
		res.CoreStats = append(res.CoreStats, s.Cores[i].Stats())
		regs := make([]uint32, 32)
		for r := 0; r < 32; r++ {
			regs[r] = s.Cores[i].Reg(uint8(r))
		}
		res.FinalRegs = append(res.FinalRegs, regs)
	}
	return res, nil
}
