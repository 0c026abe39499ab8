// Package benchmark is assasin-perf, the simulator's host-time benchmark.
//
// It runs seeded workloads against the public API of ssd, kernels, nvme,
// reqtrace and slo. Every input is generated from the seed before any timer
// starts. Untraced repeats, each in a fresh child process, give the
// end-to-end metrics; a separate traced run (a CPU/allocation profile pass
// and a telemetry count pass) gives the per-layer ledger. Every op's outputs
// are checked against the kernels' reference implementations and its
// simulated-result digest against the committed goldens.
package benchmark

import (
	"fmt"
	"runtime/metrics"
	"time"

	"assasin/internal/cpu"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
)

// Workload is one seeded input set the benchmark runs.
type Workload struct {
	Name string
	// Why says which layer the workload stresses and why it was chosen.
	Why string
	// prepare generates every input from seed. It runs before any timer
	// starts. scale multiplies the input sizes: 1 is the benchmark's size.
	prepare func(seed int64, scale float64) []op
}

// workloads lists the workloads in run order. nvmeload.go appends nvme-load
// from its init, so a checkout that predates nvme.Controller.Submit can
// delete that one file and still run the three offload workloads.
var workloads = []Workload{streamOffload, cachedOffload, shortOffloads}

// Workloads returns the registered workload names in run order.
func Workloads() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func lookup(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, Workloads())
}

// pageSize is the flash page size of the default geometry every workload
// uses; delivered-page rates are counted in these pages.
var pageSize = ssd.DefaultFlashConfig().PageSize

// op is one unit of attempted work: an offload on a fresh SSD, or a whole
// open-loop load run.
type op interface {
	run(e *env) opResult
}

// opResult is what one op measured and produced.
type opResult struct {
	name string
	// setup is host time in ssd.New, InstallBytes and BuildTasks; run is
	// host time in the simulation calls.
	setup, run time.Duration
	// units holds host time per latency unit for ops that have several
	// (the load run's command batches); nil makes setup+run the op's one
	// latency sample.
	units []time.Duration
	// insts, pages and reqs are simulated work: retired instructions,
	// flash pages delivered, and requests (offloads and NVMe commands)
	// completed.
	insts, reqs int64
	pages       float64
	// attempted and failed count the op itself plus, for the load run,
	// every NVMe command; err describes the first failure.
	attempted, failed int
	err               error
	digest            string
}

// env carries the pass-specific instrumentation through an op.
type env struct {
	// spans, when non-nil, records one span per public call (profile pass).
	spans *spanLog
	// tel attaches a telemetry sink to every SSD and harvests its counters
	// (count pass).
	tel bool
	// op is the id of the op being run, counted across passes; its spans
	// share it.
	op int
	// counts accumulates work counts by "<component>/<name>".
	counts map[string]float64
	// allocBytes accumulates heap bytes allocated inside set-up and
	// simulation calls (verification excluded).
	allocBytes uint64
	allocs     []metrics.Sample
	// cal, when non-nil, interleaves calibration with the ops (timed
	// passes).
	cal *calibrator
}

func newEnv() *env {
	return &env{
		counts: make(map[string]float64),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// allocated returns the process's cumulative heap allocation in bytes.
func (e *env) allocated() uint64 {
	metrics.Read(e.allocs)
	return e.allocs[0].Value.Uint64()
}

// span ends a call that began at start, records it when tracing, and
// returns its duration.
func (e *env) span(name string, start time.Time) time.Duration {
	d := time.Since(start)
	if e.spans != nil {
		e.spans.add(name, e.op, start, d)
	}
	return d
}

// addStats accumulates simulated core work and waits.
func (e *env) addStats(stats []cpu.Stats) {
	s := sumStats(stats)
	e.counts["cpu/insts"] += float64(s.Instructions)
	e.counts["cpu/retries"] += float64(s.Retries)
	e.counts["cpu/busy_ps"] += float64(s.BusyTime)
	e.counts["cpu/total_ps"] += float64(s.TotalTime())
	e.counts["cpu/exec_stall_ps"] += float64(s.StallTime[cpu.StallExec])
	e.counts["cpu/mem_stall_ps"] += float64(s.StallTime[cpu.StallMem])
	e.counts["cpu/refill_stall_ps"] += float64(s.StallTime[cpu.StallStreamWait])
	e.counts["cpu/out_full_stall_ps"] += float64(s.StallTime[cpu.StallOutFull])
}

// harvest adds every counter and gauge on an SSD's sink to the counts.
func (e *env) harvest(s *ssd.SSD, sink *telemetry.Sink) {
	s.PublishStats()
	for _, m := range sink.Registered() {
		key := m.Component + "/" + m.Name
		switch m.Kind {
		case telemetry.KindCounter:
			e.counts[key] += float64(sink.Counter(m.Component, m.Name).Value())
		case telemetry.KindGauge:
			e.counts[key] += float64(sink.Gauge(m.Component, m.Name).Value())
		}
	}
}

// sumStats adds per-core statistics field by field. Dispatches is left out
// so the sum, and the digests built on it, compare across commits that
// predate that field.
func sumStats(stats []cpu.Stats) cpu.Stats {
	var s cpu.Stats
	for _, st := range stats {
		s.Instructions += st.Instructions
		for i := range st.ByClass {
			s.ByClass[i] += st.ByClass[i]
		}
		s.BusyTime += st.BusyTime
		for i := range st.StallTime {
			s.StallTime[i] += st.StallTime[i]
		}
		s.LoadBytes += st.LoadBytes
		s.StoreBytes += st.StoreBytes
		s.StreamInBytes += st.StreamInBytes
		s.StreamOutBytes += st.StreamOutBytes
		s.Retries += st.Retries
	}
	return s
}

// passResult aggregates one pass over a workload's ops: one timed repeat, or
// one traced pass.
type passResult struct {
	WallS     float64            `json:"wall_s"`
	SetupS    float64            `json:"setup_s"`
	OpMs      []float64          `json:"op_ms"`
	Insts     int64              `json:"insts"`
	Pages     float64            `json:"pages"`
	Reqs      int64              `json:"reqs"`
	AllocMB   float64            `json:"alloc_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digests   map[string]string  `json:"digests"`
	Counts    map[string]float64 `json:"counts"`
	// HostFactor is the calibration's mean unit time over refUnit; 0 when
	// the pass ran without calibration.
	HostFactor float64 `json:"host_factor,omitempty"`
}

// maxErrors bounds how many failure messages a pass keeps.
const maxErrors = 5

// runOps runs ops in order. An op whose digest differs from golden (when
// golden names it) counts as failed.
func runOps(ops []op, e *env, golden map[string]string) passResult {
	p := passResult{Digests: make(map[string]string, len(ops))}
	alloc0 := e.allocBytes
	for _, o := range ops {
		start := time.Now()
		r := o.run(e)
		e.span("op", start)
		e.op++
		if want, ok := golden[r.name]; ok && r.err == nil && r.digest != want {
			r.err = fmt.Errorf("%s: simulated-result digest %s, golden %s", r.name, r.digest, want)
			r.failed++
		}
		p.WallS += (r.setup + r.run).Seconds()
		p.SetupS += r.setup.Seconds()
		if r.units == nil {
			p.OpMs = append(p.OpMs, ms(r.setup+r.run))
		}
		for _, u := range r.units {
			p.OpMs = append(p.OpMs, ms(u))
		}
		p.Insts += r.insts
		p.Pages += r.pages
		p.Reqs += r.reqs
		p.Attempted += r.attempted
		p.Failed += r.failed
		if r.err != nil && len(p.Errors) < maxErrors {
			p.Errors = append(p.Errors, r.err.Error())
		}
		p.Digests[r.name] = r.digest
		if e.cal != nil {
			e.cal.after(r.setup + r.run)
		}
	}
	if e.cal != nil {
		e.cal.flush()
		p.HostFactor = e.cal.factor()
	}
	p.AllocMB = float64(e.allocBytes-alloc0) / 1e6
	p.Counts = e.counts
	return p
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
