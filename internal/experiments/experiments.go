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

	"assasin/internal/cpu"
	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/runpool"
	"assasin/internal/sim"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/timeline"
)

// Config scales the experiments.
type Config struct {
	// KernelMB is the standalone kernels' input size (Figs 5 and 13; Table
	// II runs on half of it), split over a kernel's input streams.
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
	// Telemetry, when non-nil, is the root sink that absorbs every run an
	// experiment builds. Each run observes privately, through one Observer,
	// and the root absorbs its sink when the run finishes. The private sink
	// records trace events only when the root does (MaxEvents >= 0), and
	// then runs execute sequentially whatever Workers says, because the
	// root appends events in the order runs finish. See Observer.
	Telemetry *telemetry.Sink `json:"-"`
	// Timeline, when non-nil, attaches a sim-time sampler with this
	// configuration to every run; the finished per-run timeline is
	// delivered on the run's analyze.Run.Timeline. Samplers are per-run and driven by
	// simulated time, so timelines are byte-identical across Workers
	// settings.
	Timeline *timeline.Config `json:"-"`
	// Requests, when > 0, attaches a per-run request tracer to every run,
	// retaining the Requests slowest requests with full critical-path
	// detail; the finished summary is delivered on analyze.Run.Requests.
	Requests int
	// KProf, when true, attaches a per-run guest-kernel profiler to every
	// run; the finished per-(kernel, basic block, pc) attribution is
	// delivered on analyze.Run.Profile.
	KProf bool
	// OnRunDone, when non-nil, receives the record of every completed run:
	// label, the SSD's architecture and engine count, the class times
	// summed over its cores and the artifacts above. It is
	// invoked on the run's simulation goroutine: with Workers > 1
	// invocations are concurrent, so handlers must be goroutine-safe.
	OnRunDone func(analyze.Run) `json:"-"`
	// Log, when non-nil, receives run lifecycle events (start/finish at
	// Debug/Info). Handlers must be goroutine-safe when Workers > 1.
	Log *slog.Logger `json:"-"`
	// Load overrides the open-loop load experiment's workload (nil selects
	// DefaultLoad). cmd flags (-load, -slo) land here.
	Load *LoadConfig `json:"-"`
}

// workers returns the effective pool width for fan-out sites: sequential
// when the root sink records trace events (see Observer).
func (c Config) workers() int {
	if c.Workers > 1 && !c.Telemetry.RecordsEvents() {
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
	// exec selects the interpreter. Only the equivalence soaks set it, to
	// run the oracle (cpu.ExecPrecise) against the default and demand
	// identical results.
	exec cpu.ExecMode
}

// runStandalone builds a fresh SSD observed as cfg asks, installs the
// inputs, and runs the kernel across the cores.
func runStandalone(cfg Config, o runOpts) (*StandaloneRun, error) {
	obs := Observe(cfg, fmt.Sprintf("%s/%v", o.kernel.Name(), o.arch), o.kernel.Name())
	s := ssd.New(obs.Options(ssd.Options{
		Arch:           o.arch,
		Cores:          o.cores,
		TimingAdjusted: o.adjusted,
		WindowPages:    o.windowPages,
		Exec:           o.exec,
	}))
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
	return &StandaloneRun{Result: res, SSD: s, Run: obs.Finish(s, res)}, nil
}

// runChecked runs o and, when cfg.Verify is set, collects its outputs and
// checks them against the kernel's reference.
func runChecked(cfg Config, o runOpts) (*StandaloneRun, error) {
	o.collect = cfg.Verify && o.outKind != firmware.OutDiscard
	r, err := runStandalone(cfg, o)
	if err != nil {
		return nil, fmt.Errorf("%s on %v: %w", o.kernel.Name(), o.arch, err)
	}
	return r, verifyOutputs(o, r)
}

// throughputs runs every job through runChecked, as many at once as cfg
// allows, and returns each one's input throughput in bytes/second.
func throughputs(cfg Config, jobs []runOpts) ([]float64, error) {
	return runpool.Map(cfg.workers(), len(jobs), func(j int) (float64, error) {
		r, err := runChecked(cfg, jobs[j])
		if err != nil {
			return 0, err
		}
		return r.throughput(), nil
	})
}

// verifyOutputs concatenates collected per-core outputs and compares them
// with the kernel reference over the same per-core partitions.
func verifyOutputs(o runOpts, r *StandaloneRun) error {
	if !o.collect {
		return nil
	}
	ranges := ssd.PartitionBytes(int64(len(o.inputs[0])), o.cores, o.recordSize)
	for slot := 0; slot < o.kernel.Outputs(); slot++ {
		var got []byte
		for _, outs := range r.Result.Outputs {
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
