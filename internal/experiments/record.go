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
	// Metrics is the post-run snapshot of the run's private sink, nil when
	// the run was not instrumented. It covers exactly this run.
	Metrics *telemetry.MetricsSnapshot
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
// completes the RunRecord, absorbs the run's sink into the root sink and
// hands the record to Config.OnRunDone.
//
// One rule decides how runs meet the root sink Config.Telemetry: each run
// observes privately, and the root absorbs. The private sink records trace
// events only if the root does, and the root appends them in the order the
// runs finish, so Config.workers runs a trace-recording root's fan-outs
// sequentially. Metric absorption is commutative — counters and histograms
// sum, gauges take maxima — so the merged snapshot is identical for any
// Workers setting or completion order.
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
	if root := cfg.Telemetry; root != nil {
		o.tel = telemetry.NewSink()
		o.tel.MaxEvents = root.MaxEvents
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
// when the run offloaded nothing), absorbs the run's sink into the root and
// then delivers the record to Config.OnRunDone, so a handler that reads the
// root sees this run in it. It is called on the run's simulation goroutine.
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
		o.cfg.Telemetry.Absorb(o.tel)
	}
	if o.cfg.OnRunDone != nil {
		o.cfg.OnRunDone(rec)
	}
	return rec
}
