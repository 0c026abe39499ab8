package benchmark

// Metric declares one reported metric. BENCHMARK.json at the repository
// root declares the same names, units, directions and bounds; a test keeps
// the two in step.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd lists the metrics a user of the simulator sees: host time and
// simulated work per host second, at the workload's stated size. Host time
// is scaled to the reference host speed (calibrate.go): a repeat's measured
// time divided by its host factor. Each is the median over a run's timed
// repeats. Bound is the share of the baseline's value by which a metric may
// worsen before a change counts as a regression.
var EndToEnd = []Metric{
	// Wall time of one repeat's set-up and simulation calls; the
	// benchmark's own verification and calibration are excluded.
	{"wall_s", "s", "lower", 0.25},
	// Time in ssd.New, InstallBytes and BuildTasks (and the load runs'
	// key-space installs), summed over a repeat's ops.
	{"setup_s", "s", "lower", 0.25},
	// Simulated instructions retired per host second, in millions.
	{"sim_mips", "MIPS", "higher", 0.25},
	// Flash pages delivered (offload input plus NVMe command pages) per
	// host second.
	{"sim_pages_per_s", "1/s", "higher", 0.25},
	// Requests (offloads and NVMe commands) completed per host second.
	{"sim_req_per_s", "1/s", "higher", 0.25},
	// Heap bytes allocated inside set-up and simulation calls.
	{"alloc_mb", "MB", "lower", 0.02},
}

// Reported lists the metrics a result file holds beside EndToEnd that no
// comparison gates. An op's host latency depends on which op it is: a mix's
// median op changes from repeat to repeat, and the tail holds the ops most
// exposed to cache contention and GC. max_rss_mb follows GC pacing.
// raw_wall_s and host_factor show the host's speed rather than the
// simulator's. fail_frac is gated apart: any failed op fails a comparison.
// BENCHMARK.json declares none of them.
var Reported = []Metric{
	// Milliseconds per op at the reference host speed (set-up plus run of
	// one offload, or one batch of 1,000 completed commands in a load run),
	// over every op of the run's timed repeats. p99 is the percentile with
	// ten ops beyond it in one repeat of short-offloads.
	{"op_ms_p50", "ms", "lower", 0},
	{"op_ms_p99", "ms", "lower", 0},
	// wall_s as the wall clock measured it, before scaling.
	{"raw_wall_s", "s", "lower", 0},
	// The repeat's mean calibration unit time over refUnit: above 1, the
	// host ran slower than the reference.
	{"host_factor", "ratio", "lower", 0},
	// The repeat's child process peak resident set.
	{"max_rss_mb", "MB", "lower", 0},
	failFrac,
}

// failFrac is the share of attempted ops that failed.
var failFrac = Metric{"fail_frac", "ratio", "lower", 0}

// resultMetrics lists every metric a result file holds per workload.
func resultMetrics() []Metric {
	return append(EndToEnd[:len(EndToEnd):len(EndToEnd)], Reported...)
}

// Layers are the simulator's modules, the names per-layer metrics start
// with. Every package under internal/ maps to one (layerOf).
var Layers = []string{
	"cpu", "memhier", "sim", "firmware", "flash", "ftl", "crossbar",
	"nvme", "ssd", "kernels", "telemetry", "runtime", "other",
}

// PerLayer lists the traced run's metrics.
func PerLayer() []Metric {
	var ms []Metric
	for _, l := range Layers {
		// Share of profiled host CPU time whose leaf frame is in the layer.
		ms = append(ms, Metric{Name: l + ".self_pct", Unit: "%", Better: "lower"})
	}
	for _, l := range Layers {
		if l != "runtime" { // allocations are charged to the innermost simulator frame
			ms = append(ms, Metric{Name: l + ".alloc_mb", Unit: "MB", Better: "lower"})
		}
	}
	return append(ms, []Metric{
		{Name: "trace.cpu_s", Unit: "s", Better: "lower"},
		{Name: "trace.samples", Unit: "count", Better: "higher"},
		{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
		// Benchmark-side spans, as shares of the root op spans' time.
		{Name: "ssd.new_pct", Unit: "%", Better: "lower"},
		{Name: "ftl.install_pct", Unit: "%", Better: "lower"},
		{Name: "kernels.build_pct", Unit: "%", Better: "lower"},
		{Name: "ssd.run_offload_pct", Unit: "%", Better: "lower"},
		{Name: "kernels.verify_pct", Unit: "%", Better: "lower"},
		// Work counts and host CPU time per unit of work.
		{Name: "cpu.insts", Unit: "count", Better: "lower"},
		{Name: "cpu.retries", Unit: "count", Better: "lower"},
		{Name: "cpu.ns_per_inst", Unit: "ns/inst", Better: "lower"},
		{Name: "sim.dispatches", Unit: "count", Better: "lower"},
		{Name: "sim.wakes", Unit: "count", Better: "lower"},
		{Name: "sim.ns_per_dispatch", Unit: "ns/dispatch", Better: "lower"},
		{Name: "firmware.pages_fed", Unit: "count", Better: "lower"},
		{Name: "firmware.pages_drained", Unit: "count", Better: "lower"},
		{Name: "firmware.ns_per_page", Unit: "ns/page", Better: "lower"},
		{Name: "memhier.stream_pages", Unit: "count", Better: "lower"},
		{Name: "memhier.refill_stalls", Unit: "count", Better: "lower"},
		{Name: "memhier.out_full_stalls", Unit: "count", Better: "lower"},
		{Name: "memhier.l1_accesses", Unit: "count", Better: "lower"},
		{Name: "memhier.l1_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "memhier.prefetch_useful_ratio", Unit: "ratio", Better: "higher"},
		{Name: "memhier.dram_mb", Unit: "MB", Better: "lower"},
		{Name: "flash.senses", Unit: "count", Better: "lower"},
		{Name: "flash.programs", Unit: "count", Better: "lower"},
		{Name: "flash.erases", Unit: "count", Better: "lower"},
		{Name: "flash.ns_per_op", Unit: "ns/op", Better: "lower"},
		{Name: "ftl.lookups", Unit: "count", Better: "lower"},
		{Name: "ftl.host_writes", Unit: "count", Better: "lower"},
		{Name: "ftl.gc_writes", Unit: "count", Better: "lower"},
		{Name: "ftl.write_amp", Unit: "ratio", Better: "lower"},
		{Name: "ftl.install_pages", Unit: "count", Better: "lower"},
		{Name: "crossbar.grants", Unit: "count", Better: "lower"},
		{Name: "crossbar.conflict_ratio", Unit: "ratio", Better: "lower"},
		{Name: "nvme.commands", Unit: "count", Better: "higher"},
		{Name: "nvme.failed", Unit: "count", Better: "lower"},
		{Name: "nvme.ns_per_command", Unit: "ns/cmd", Better: "lower"},
		{Name: "telemetry.requests_traced", Unit: "count", Better: "higher"},
		{Name: "telemetry.ns_per_request", Unit: "ns/req", Better: "lower"},
		{Name: "ssd.offloads", Unit: "count", Better: "higher"},
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_pause_s", Unit: "s", Better: "lower"},
		// Shares of simulated (modelled) core time: issue and each wait.
		{Name: "cpu.busy_sim_pct", Unit: "%", Better: "higher"},
		{Name: "cpu.exec_stall_sim_pct", Unit: "%", Better: "lower"},
		{Name: "memhier.dram_wait_sim_pct", Unit: "%", Better: "lower"},
		{Name: "memhier.refill_wait_sim_pct", Unit: "%", Better: "lower"},
		{Name: "firmware.out_full_wait_sim_pct", Unit: "%", Better: "lower"},
	}...)
}
