package benchmark

import (
	"math"
	"runtime"
	"strings"
)

const internalPrefix = "assasin/internal/"

// layerOfPackage maps each top-level package under internal/ to its layer.
// Subpackages share their parent's layer (telemetry/reqtrace is
// telemetry). Packages outside the simulated device join the layer they
// serve: the host model sits with nvme, the harnesses and silicon models
// with ssd, the TPC-H substrate with kernels, and the reporting surface
// with telemetry.
var layerOfPackage = map[string]string{
	"cpu":      "cpu",
	"memhier":  "memhier",
	"core":     "memhier",
	"sim":      "sim",
	"firmware": "firmware",
	"flash":    "flash",
	"ftl":      "ftl",
	"crossbar": "crossbar",
	"nvme":     "nvme",
	"host":     "nvme",
	"ssd":      "ssd",
	"power":    "ssd",
	"runpool":  "ssd",
	// The experiments harness builds SSDs and runs offloads, as the
	// benchmark does from outside.
	"experiments": "ssd",
	"kernels":     "kernels",
	"asm":         "kernels",
	"isa":         "kernels",
	"aes":         "kernels",
	"gf":          "kernels",
	"tpch":        "kernels",
	"telemetry":   "telemetry",
	"obs":         "telemetry",
	"profiling":   "telemetry",
	"buildinfo":   "telemetry",
}

// layerOf returns the layer of a Go package path: "runtime" for the Go
// runtime and sync, the module's layer for a simulator package, and "" for
// everything else (the rest of the standard library, the benchmark).
func layerOf(pkg string) string {
	switch {
	case pkg == "runtime", pkg == "sync",
		strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "sync/"),
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, internalPrefix):
		top, _, _ := strings.Cut(strings.TrimPrefix(pkg, internalPrefix), "/")
		if l, ok := layerOfPackage[top]; ok {
			return l
		}
		return "other"
	}
	return ""
}

// funcPackage returns the package path of a fully qualified function name
// such as "assasin/internal/cpu.(*Core).run" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // type parameters
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// selfLayer charges a CPU sample to the layer of its leaf frame. A leaf in
// other library code (sort, bytes, crypto) is charged to the innermost
// caller that has a layer; a stack with none is "other".
func selfLayer(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(funcPackage(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// allocLayer charges an allocation to the innermost simulator frame on its
// stack, so runtime helpers (growslice, makemap) count against their
// caller; a stack with none is "other".
func allocLayer(stack []string) string {
	for _, fn := range stack {
		if pkg := funcPackage(fn); strings.HasPrefix(pkg, internalPrefix) {
			return layerOf(pkg)
		}
	}
	return "other"
}

// ledger is the profile pass's host-side account of one workload, summed
// over its rounds.
type ledger struct {
	Rounds int `json:"rounds"`
	// CPUSeconds is the process's CPU time over the rounds; the samples
	// split it between layers.
	CPUSeconds  float64            `json:"cpu_s"`
	SelfSamples map[string]int64   `json:"self_samples"`
	AllocBytes  map[string]float64 `json:"alloc_bytes"`
	SpanPct     map[string]float64 `json:"span_pct"`
	GCCycles    uint32             `json:"gc_cycles"`
	GCPauseNs   uint64             `json:"gc_pause_ns"`
}

// addCPU charges every sample of a CPU profile to its layer.
func (l *ledger) addCPU(p *profile) {
	l.SelfSamples = make(map[string]int64)
	for _, s := range p.samples {
		l.SelfSamples[selfLayer(s.stack)] += p.value(s, "samples/count")
	}
}

// memRecords snapshots the allocation profile by stack. The profile is
// published at the end of a GC cycle, so callers run runtime.GC first.
func memRecords() map[[32]uintptr]runtime.MemProfileRecord {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	m := make(map[[32]uintptr]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		acc := m[r.Stack0]
		acc.Stack0 = r.Stack0
		acc.AllocBytes += r.AllocBytes
		acc.AllocObjects += r.AllocObjects
		m[r.Stack0] = acc
	}
	return m
}

// addAllocs charges the allocations made between two snapshots to layers,
// scaling each stack's sampled bytes up to an estimate of the true total
// the way runtime/pprof does.
func (l *ledger) addAllocs(before, after map[[32]uintptr]runtime.MemProfileRecord, rate int) {
	l.AllocBytes = make(map[string]float64)
	for key, a := range after {
		b := before[key]
		objs, size := a.AllocObjects-b.AllocObjects, a.AllocBytes-b.AllocBytes
		if objs <= 0 || size <= 0 {
			continue
		}
		scale := 1 / (1 - math.Exp(-float64(size)/float64(objs)/float64(rate)))
		var stack []string
		frames := runtime.CallersFrames(a.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		l.AllocBytes[allocLayer(stack)] += float64(size) * scale
	}
}

// spanNames are the benchmark-side spans reported as shares of op time.
var spanNames = []string{"ssd.new", "ftl.install", "kernels.build", "ssd.run_offload", "kernels.verify"}

// layerValues computes every per-layer metric from the profile pass (its
// ledger and mean wall time per round), the count pass's work counts, and
// the timed repeats' median wall time. Host times and allocations are per
// round, so they compare with one timed repeat.
func layerValues(l *ledger, profWallS float64, c map[string]float64, timedWallS float64) map[string]float64 {
	var samples int64
	for _, layer := range Layers {
		samples += l.SelfSamples[layer]
	}
	rounds := float64(l.Rounds)
	cpuS := l.CPUSeconds / rounds
	v := make(map[string]float64)
	for _, layer := range Layers {
		v[layer+".self_pct"] = ratio(100*float64(l.SelfSamples[layer]), float64(samples))
		if layer != "runtime" {
			v[layer+".alloc_mb"] = l.AllocBytes[layer] / rounds / 1e6
		}
	}
	v["trace.cpu_s"] = cpuS
	v["trace.samples"] = float64(samples)
	v["trace.overhead_pct"] = 100 * (ratio(profWallS, timedWallS) - 1)
	for _, name := range spanNames {
		v[name+"_pct"] = l.SpanPct[name]
	}
	perUnit := func(layer string, units float64) float64 {
		return ratio(v[layer+".self_pct"]/100*cpuS*1e9, units)
	}

	v["cpu.insts"] = c["cpu/insts"]
	v["cpu.retries"] = c["cpu/retries"]
	v["cpu.ns_per_inst"] = perUnit("cpu", c["cpu/insts"])
	v["sim.dispatches"] = c["sched/dispatches"]
	v["sim.wakes"] = c["sched/wakes"]
	v["sim.ns_per_dispatch"] = perUnit("sim", c["sched/dispatches"])
	v["firmware.pages_fed"] = c["fw/pages_fed"]
	v["firmware.pages_drained"] = c["fw/pages_drained"]
	v["firmware.ns_per_page"] = perUnit("firmware", c["fw/pages_fed"]+c["fw/pages_drained"])
	v["memhier.stream_pages"] = c["stream/push_pages"]
	v["memhier.refill_stalls"] = c["stream/refill_stalls"]
	v["memhier.out_full_stalls"] = c["stream/out_full_stalls"]
	l1 := c["cache/l1_hits"] + c["cache/l1_misses"]
	v["memhier.l1_accesses"] = l1
	v["memhier.l1_hit_ratio"] = ratio(c["cache/l1_hits"], l1)
	v["memhier.prefetch_useful_ratio"] = ratio(c["cache/l1_prefetch_useful"], c["cache/l1_prefetch_issued"])
	v["memhier.dram_mb"] = c["dram/total_bytes"] / 1e6
	flashOps := c["flash/senses"] + c["flash/programs"] + c["flash/erases"]
	v["flash.senses"] = c["flash/senses"]
	v["flash.programs"] = c["flash/programs"]
	v["flash.erases"] = c["flash/erases"]
	v["flash.ns_per_op"] = perUnit("flash", flashOps)
	v["ftl.lookups"] = c["ftl/lookups"]
	v["ftl.host_writes"] = c["ftl/host_writes"]
	v["ftl.gc_writes"] = c["ftl/gc_writes"]
	v["ftl.write_amp"] = ratio(c["ftl/host_writes"]+c["ftl/gc_writes"], c["ftl/host_writes"])
	v["ftl.install_pages"] = c["ftl/install_pages"]
	v["crossbar.grants"] = c["xbar/grants"]
	v["crossbar.conflict_ratio"] = ratio(c["xbar/conflicts"], c["xbar/grants"])
	v["nvme.commands"] = c["nvme/commands"]
	v["nvme.failed"] = c["nvme/failed"]
	v["nvme.ns_per_command"] = perUnit("nvme", c["nvme/commands"])
	v["telemetry.requests_traced"] = c["req/traced"]
	v["telemetry.ns_per_request"] = perUnit("telemetry", c["req/traced"])
	v["ssd.offloads"] = c["ssd/offloads"]
	v["runtime.gc_cycles"] = float64(l.GCCycles) / rounds
	v["runtime.gc_pause_s"] = float64(l.GCPauseNs) / rounds / 1e9
	total := c["cpu/total_ps"]
	v["cpu.busy_sim_pct"] = ratio(100*c["cpu/busy_ps"], total)
	v["cpu.exec_stall_sim_pct"] = ratio(100*c["cpu/exec_stall_ps"], total)
	v["memhier.dram_wait_sim_pct"] = ratio(100*c["cpu/mem_stall_ps"], total)
	v["memhier.refill_wait_sim_pct"] = ratio(100*c["cpu/refill_stall_ps"], total)
	v["firmware.out_full_wait_sim_pct"] = ratio(100*c["cpu/out_full_stall_ps"], total)
	return v
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
