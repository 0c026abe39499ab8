// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI). Each experiment builds fresh SSD instances,
// runs the relevant offloads, verifies functional outputs against the
// kernels' reference implementations, and returns structured rows that
// cmd/assasin-bench formats like the paper's artifacts.
//
// Workload sizes are laptop-scale (documented substitution in DESIGN.md):
// streaming kernels are steady-state, so throughput — and every ratio the
// paper reports — is size-invariant past warm-up.
package experiments

import (
	"bytes"
	"fmt"
	"log/slog"
	"math"
	"math/rand"

	"assasin/internal/cpu"
	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/sim"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/kprof"
	"assasin/internal/telemetry/reqtrace"
	"assasin/internal/telemetry/timeline"
)

// Config scales the experiments.
type Config struct {
	// KernelMB is the per-stream input size for standalone kernels (Fig 13).
	KernelMB float64
	// AESKB bounds the AES input (the kernel runs ~65 simulated
	// instructions per byte, so it gets a smaller input).
	AESKB float64
	// ScanMB is the total input for the scalability study (Figs 16-18).
	ScanMB float64
	// TPCHScale is the dataset scale factor for Figs 14-15.
	TPCHScale float64
	// Cores is the engine count (Table IV uses 8).
	Cores int
	// Verify cross-checks offload outputs against reference
	// implementations where the experiment collects them.
	Verify bool
	// Workers bounds how many independent simulation runs execute
	// concurrently. 0 or 1 runs everything sequentially; results are
	// identical either way (see internal/runpool).
	Workers int
	// Telemetry, when non-nil, is handed to every SSD an experiment
	// builds. The sink is not goroutine-safe, so callers must keep
	// Workers <= 1 when setting it — unless PerRunTelemetry is also set,
	// which makes the metrics path parallel-safe (cmd/assasin-bench wires
	// this; only trace capture still forces sequential runs).
	Telemetry *telemetry.Sink `json:"-"`
	// PerRunTelemetry gives every standalone run a private sink (with
	// event recording disabled) in place of the shared Telemetry sink,
	// absorbed into Telemetry at the run boundary via the goroutine-safe
	// telemetry.AbsorbMetrics. Absorption is commutative — counters and
	// histograms sum, gauges take maxima — so the merged snapshot is
	// identical for any Workers setting or completion order. RunRecord
	// snapshots then cover exactly one run. Trace events cannot be
	// captured this way: -trace still needs the shared sink and
	// sequential execution.
	PerRunTelemetry bool `json:"-"`
	// Timeline, when non-nil, attaches a sim-time sampler with this
	// configuration to every standalone run; the finished per-run
	// timeline is delivered on RunRecord.Timeline. Samplers are per-run
	// and driven by simulated time, so timelines are byte-identical
	// across Workers settings.
	Timeline *timeline.Config `json:"-"`
	// Requests, when > 0, attaches a per-run request tracer to every
	// standalone run, retaining the Requests slowest requests with full
	// critical-path detail; the finished summary is delivered on
	// RunRecord.Requests. Tracers are per-run (the per-run-sink pattern),
	// so summaries are byte-identical across Workers settings.
	Requests int
	// KProf, when true, attaches a per-run guest-kernel profiler to every
	// standalone run; the finished per-(kernel, basic block, pc)
	// attribution is delivered on RunRecord.Profile. Profilers are
	// per-run (the per-run-sink pattern), so profiles are byte-identical
	// across Workers settings and Exec modes.
	KProf bool
	// OnRunDone, when non-nil, receives a record of every completed
	// standalone run: label, per-core cycle decomposition, and (when
	// Telemetry is set) the post-run metrics snapshot. It is invoked on
	// the run's simulation goroutine: with Workers > 1 (PerRunTelemetry)
	// invocations are concurrent, so handlers must be goroutine-safe.
	OnRunDone func(RunRecord) `json:"-"`
	// Log, when non-nil, receives run lifecycle events (start/finish at
	// Debug/Info). Handlers must be goroutine-safe when Workers > 1.
	Log *slog.Logger `json:"-"`
	// Load overrides the open-loop load experiment's workload (nil selects
	// DefaultLoad). cmd flags (-load, -slo) land here.
	Load *LoadConfig `json:"-"`
}

// workers returns the effective pool width for fan-out sites.
func (c Config) workers() int {
	if c.Workers > 1 {
		return c.Workers
	}
	return 1
}

// Default returns the benchmark-scale configuration.
func Default() Config {
	return Config{
		KernelMB:  2,
		AESKB:     256,
		ScanMB:    8,
		TPCHScale: 0.004,
		Cores:     8,
		Verify:    false,
	}
}

// Quick returns a configuration small enough for unit tests.
func Quick() Config {
	return Config{
		KernelMB:  0.25,
		AESKB:     32,
		ScanMB:    1,
		TPCHScale: 0.001,
		Cores:     4,
		Verify:    true,
	}
}

func randData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	// Round to a 64-byte multiple so every kernel's record size divides it.
	return b[:len(b)&^63]
}

// runOpts parameterize one standalone offload run.
type runOpts struct {
	arch       ssd.Arch
	adjusted   bool
	cores      int
	kernel     kernels.Kernel
	inputs     [][]byte
	recordSize int
	outKind    firmware.OutKind
	collect    bool
	// windowPages overrides the per-slot input window depth (0 = arch
	// default). Single-stream workloads may use the whole ISB capacity.
	windowPages int
	// exec and plane select the interpreter and the firmware delivery
	// event structure. Only the equivalence soaks set them, to run each
	// oracle (cpu.ExecPrecise, firmware.PlanePerPage) against the default
	// and demand identical results.
	exec  cpu.ExecMode
	plane firmware.PlaneMode
	// coreQuantum overrides the per-core scheduler quantum (0 = default).
	coreQuantum sim.Time
	// telemetry, when non-nil, instruments the run's SSD; runStandalone
	// opens a trace run labeled "<kernel>/<arch>" and publishes the
	// component snapshot gauges after the run.
	telemetry *telemetry.Sink
	// perRunTel swaps telemetry for a private per-run sink absorbed at the
	// run boundary (see Config.PerRunTelemetry).
	perRunTel bool
	// timeline, when non-nil, attaches a per-run sim-time sampler.
	timeline *timeline.Config
	// requests, when > 0, attaches a per-run request tracer (top-K depth).
	requests int
	// kprof, when true, attaches a per-run guest-kernel profiler.
	kprof bool
	// onRunDone, when non-nil, receives the completed run's RunRecord
	// (with a metrics snapshot when telemetry is set).
	onRunDone func(RunRecord)
	// log, when non-nil, receives run lifecycle events.
	log *slog.Logger
}

// instrument copies the Config-level observability hooks into the run
// options so every runStandalone call site stays a one-liner.
func (c Config) instrument(o runOpts) runOpts {
	o.telemetry = c.Telemetry
	o.perRunTel = c.PerRunTelemetry
	o.timeline = c.Timeline
	o.requests = c.Requests
	o.kprof = c.KProf
	o.onRunDone = c.OnRunDone
	o.log = c.Log
	return o
}

// runResult is one run's measurements.
type runResult struct {
	res      *ssd.Result
	instance *ssd.SSD
}

// throughput returns input bytes/second.
func (r *runResult) throughput() float64 { return r.res.Throughput() }

// runStandalone builds a fresh SSD, installs the inputs, and runs the
// kernel across the cores.
func runStandalone(o runOpts) (*runResult, error) {
	label := fmt.Sprintf("%s/%v", o.kernel.Name(), o.arch)
	tel := o.telemetry
	var root *telemetry.Sink
	if o.perRunTel && tel != nil {
		// Parallel-safe metrics: this run gets a private sink (no event
		// recording) and the shared sink only sees the commutative absorb
		// at the end, so concurrent runs never touch shared mutable state.
		root = tel
		tel = telemetry.NewSink()
		tel.MaxEvents = -1
		tel.Log = o.log
	}
	if tel != nil {
		tel.StartRun(label)
	}
	var sampler *timeline.Sampler
	if o.timeline != nil {
		sampler = timeline.New(tel, *o.timeline)
	}
	var tracer *reqtrace.Tracer
	if o.requests > 0 {
		tracer = reqtrace.New(tel, reqtrace.Config{TopK: o.requests})
	}
	var kp *kprof.Profiler
	if o.kprof {
		kp = kprof.New()
	}
	if o.log != nil {
		o.log.Debug("run start", "run", label, "cores", o.cores, "arch", o.arch.String())
	}
	s := ssd.New(ssd.Options{
		Arch:           o.arch,
		Cores:          o.cores,
		TimingAdjusted: o.adjusted,
		WindowPages:    o.windowPages,
		Exec:           o.exec,
		DataPlane:      o.plane,
		CoreQuantum:    o.coreQuantum,
		Telemetry:      tel,
		Timeline:       sampler,
		Requests:       tracer,
		KProf:          kp,
		Log:            o.log,
	})
	var lpaLists [][]int
	var lengths []int64
	for _, in := range o.inputs {
		lpas, err := s.InstallBytes(in)
		if err != nil {
			return nil, err
		}
		lpaLists = append(lpaLists, lpas)
		lengths = append(lengths, int64(len(in)))
	}
	res, err := s.RunKernel(ssd.KernelRun{
		Kernel:     o.kernel,
		Inputs:     lpaLists,
		InputBytes: lengths,
		RecordSize: o.recordSize,
		Cores:      o.cores,
		OutKind:    o.outKind,
		Collect:    o.collect,
	})
	if err != nil {
		return nil, err
	}
	s.PublishStats()
	if o.log != nil {
		o.log.Info("run finished", "run", label,
			"duration_ps", int64(res.Duration), "throughput_bps", res.Throughput())
	}
	if o.onRunDone != nil {
		rec := RunRecord{
			Label:      label,
			Kernel:     o.kernel.Name(),
			Arch:       o.arch,
			Cores:      o.cores,
			Duration:   res.Duration,
			InputBytes: res.InputBytes,
			CoreStats:  res.CoreStats,
			Timeline:   sampler.Finish(label, int64(res.Duration)),
			Requests:   tracer.Summary(label),
		}
		if kp != nil {
			rec.Profile = kp.Snapshot()
			rec.Profile.Label = label
		}
		if tel != nil {
			snap := tel.Metrics()
			rec.Metrics = &snap
		}
		o.onRunDone(rec)
	}
	if root != nil {
		root.AbsorbMetrics(tel)
	}
	return &runResult{res: res, instance: s}, nil
}

// verifyOutputs concatenates collected per-core outputs and compares them
// with the kernel reference over the same per-core partitions.
func verifyOutputs(o runOpts, r *runResult) error {
	if !o.collect {
		return nil
	}
	ranges := ssd.PartitionBytes(int64(len(o.inputs[0])), o.cores, o.recordSize)
	for slot := 0; slot < o.kernel.Outputs(); slot++ {
		var got []byte
		for _, outs := range r.res.Outputs {
			got = append(got, outs[slot]...)
		}
		var want []byte
		for _, rg := range ranges {
			var parts [][]byte
			for _, in := range o.inputs {
				parts = append(parts, in[rg.Start:rg.End])
			}
			ref, err := o.kernel.Reference(parts)
			if err != nil {
				return err
			}
			want = append(want, ref[slot]...)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("experiments: %s on %v: output %d mismatch (%d vs %d bytes)",
				o.kernel.Name(), o.arch, slot, len(got), len(want))
		}
	}
	return nil
}

// geoMean returns the geometric mean of positive values.
func geoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// gbps formats bytes/second as GB/s.
func gbps(v float64) string { return fmt.Sprintf("%.2f", v/1e9) }

// msOf formats simulated time as milliseconds.
func msOf(t sim.Time) string { return fmt.Sprintf("%.3f", float64(t)/float64(sim.Millisecond)) }
