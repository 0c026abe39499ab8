package experiments

import (
	"assasin/internal/cpu"
	"assasin/internal/sim"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/kprof"
	"assasin/internal/telemetry/reqtrace"
	"assasin/internal/telemetry/timeline"
)

// RunRecord is the observable summary of one completed run, delivered to
// Config.OnRunDone. It carries everything the attribution engine needs: the
// per-core cycle decomposition plus (when the run was instrumented) the
// telemetry snapshot taken right after PublishStats.
type RunRecord struct {
	// Label names the run, e.g. "<kernel>/<arch>"; the trace run uses the
	// same label.
	Label      string
	Kernel     string
	Arch       ssd.Arch
	Cores      int
	Duration   sim.Time
	InputBytes int64
	CoreStats  []cpu.Stats
	// Metrics is the post-run telemetry snapshot, nil when the run was not
	// instrumented. On a private per-run sink it covers exactly this run;
	// on a shared sink (one that records trace events) it is cumulative
	// across the fan-out so far, and Prev holds the snapshot from before
	// the run, the baseline of its counter deltas.
	Metrics, Prev *telemetry.MetricsSnapshot
	// Timeline is the run's sampled timeline, nil unless Config.Timeline
	// was set.
	Timeline *timeline.Timeline
	// Requests is the run's request-trace summary (per-request critical
	// paths, top-K slowest), nil unless Config.Requests was set.
	Requests *reqtrace.Summary
	// Profile is the run's guest-kernel profile (per-pc cycle/stall
	// attribution), nil unless Config.KProf was set. Its per-class totals
	// sum exactly to AttributionRun's class times.
	Profile *kprof.Profile
}

// AttributionRun converts the record into the analyze package's input.
func (r RunRecord) AttributionRun() analyze.Run {
	run := analyze.Run{
		Label:      r.Label,
		Kernel:     r.Kernel,
		Arch:       r.Arch.String(),
		Cores:      r.Cores,
		DurationPs: int64(r.Duration),
		InputBytes: r.InputBytes,
		Metrics:    r.Metrics,
		Prev:       r.Prev,
	}
	for _, st := range r.CoreStats {
		for i, ps := range st.ClassTimes() {
			run.ClassPs[i] += ps
		}
	}
	return run
}

// Observer is the one per-run attachment: every SSD an experiment builds
// (and assasin-sim's single run) is observed through it. Observe opens the
// run's observers from a Config — metrics sink, timeline sampler, request
// tracer, guest profiler — Options fills them into ssd.Options, and Finish
// completes the RunRecord, hands it to Config.OnRunDone and absorbs the
// run's metrics into the root sink.
//
// One rule decides how runs meet the root sink Config.Telemetry: when it
// records trace events, every run shares it (the trace needs one event
// buffer, so Config.workers forces sequential fan-outs) and timeline
// samplers mirror their class lanes into it. Otherwise every run gets a
// private metrics-only sink, absorbed into the root at Finish. Absorption
// is commutative — counters and histograms sum, gauges take maxima — so the
// merged snapshot is identical for any Workers setting or completion order.
type Observer struct {
	cfg     Config
	rec     RunRecord
	tel     *telemetry.Sink
	sampler *timeline.Sampler
	tracer  *reqtrace.Tracer
	kp      *cpu.Profiler
}

// Observe opens the observers of one run. rec carries the run's identity
// (Label, Kernel, Arch, Cores); Finish fills in the rest.
func Observe(cfg Config, rec RunRecord) *Observer {
	o := &Observer{cfg: cfg, rec: rec}
	if root := cfg.Telemetry; root.RecordsEvents() {
		o.tel = root
		prev := root.Metrics()
		o.rec.Prev = &prev
	} else if root != nil {
		o.tel = telemetry.NewSink()
		o.tel.MaxEvents = -1
		o.tel.Log = cfg.Log
	}
	o.tel.StartRun(rec.Label)
	if cfg.Timeline != nil {
		o.sampler = timeline.New(o.tel, *cfg.Timeline)
	}
	if cfg.Requests > 0 {
		o.tracer = reqtrace.New(o.tel, reqtrace.Config{TopK: cfg.Requests})
	}
	if cfg.KProf {
		o.kp = new(cpu.Profiler)
	}
	if cfg.Log != nil {
		cfg.Log.Debug("run start", "run", rec.Label, "cores", rec.Cores, "arch", rec.Arch.String())
	}
	return o
}

// Options returns opt with the run's observer fields filled in.
func (o *Observer) Options(opt ssd.Options) ssd.Options {
	opt.Telemetry = o.tel
	opt.Timeline = o.sampler
	opt.Requests = o.tracer
	opt.KProf = o.kp
	opt.Log = o.cfg.Log
	return opt
}

// Finish publishes s's component stats, completes the record from res (nil
// when the run offloaded nothing), delivers it to Config.OnRunDone and
// absorbs a private sink into the root. It is called on the run's
// simulation goroutine.
func (o *Observer) Finish(s *ssd.SSD, res *ssd.Result) RunRecord {
	s.PublishStats()
	rec := o.rec
	var tput float64
	if res != nil {
		rec.Duration, rec.InputBytes, rec.CoreStats = res.Duration, res.InputBytes, res.CoreStats
		tput = res.Throughput()
	}
	if log := o.cfg.Log; log != nil {
		log.Info("run finished", "run", rec.Label, "duration_ps", int64(rec.Duration), "throughput_bps", tput)
	}
	rec.Timeline = o.sampler.Finish(rec.Label, int64(rec.Duration))
	rec.Requests = o.tracer.Summary(rec.Label)
	if o.kp != nil {
		rec.Profile = kprof.Snapshot(o.kp)
		rec.Profile.Label = rec.Label
	}
	if o.tel != nil {
		snap := o.tel.Metrics()
		rec.Metrics = &snap
	}
	if o.cfg.OnRunDone != nil {
		o.cfg.OnRunDone(rec)
	}
	if o.tel != o.cfg.Telemetry {
		o.cfg.Telemetry.AbsorbMetrics(o.tel)
	}
	return rec
}
