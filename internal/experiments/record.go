package experiments

import (
	"assasin/internal/cpu"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/kprof"
	"assasin/internal/telemetry/reqtrace"
	"assasin/internal/telemetry/timeline"
)

// Observer is the one per-run attachment: every SSD an experiment builds
// (and assasin-sim's single run) is observed through it. Observe opens the
// run's observers from a Config — metrics sink, timeline sampler, request
// tracer, guest profiler — Options fills them into ssd.Options, and Finish
// completes the run's analyze.Run record, absorbs the run's sink into the
// root sink and hands the record to Config.OnRunDone.
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
	label   string
	kernel  string
	tel     *telemetry.Sink
	sampler *timeline.Sampler
	tracer  *reqtrace.Tracer
	kp      *cpu.Profiler
}

// Observe opens the observers of the run named label, which offloads
// kernel. Finish reads the rest of the record from the run's SSD and
// result.
func Observe(cfg Config, label, kernel string) *Observer {
	o := &Observer{cfg: cfg, label: label, kernel: kernel}
	if root := cfg.Telemetry; root != nil {
		o.tel = telemetry.NewSink()
		o.tel.MaxEvents = root.MaxEvents
		o.tel.Log = cfg.Log
	}
	o.tel.StartRun(label)
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
		cfg.Log.Debug("run start", "run", label)
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

// Finish publishes s's component stats, completes the record from s (its
// architecture and engine count) and res (nil when the run offloaded
// nothing), absorbs the run's sink into the root and then delivers the
// record to Config.OnRunDone, so a handler that reads the root sees this
// run in it. It is called on the run's simulation goroutine.
func (o *Observer) Finish(s *ssd.SSD, res *ssd.Result) analyze.Run {
	s.PublishStats()
	rec := analyze.Run{Label: o.label, Kernel: o.kernel, Arch: s.Opt.Arch.String(), Cores: s.Opt.Cores}
	var tput float64
	if res != nil {
		rec.DurationPs, rec.InputBytes = int64(res.Duration), res.InputBytes
		for _, st := range res.CoreStats {
			for i, ps := range st.ClassTimes() {
				rec.ClassPs[i] += ps
			}
		}
		tput = res.Throughput()
	}
	if log := o.cfg.Log; log != nil {
		log.Info("run finished", "run", rec.Label, "arch", rec.Arch, "cores", rec.Cores,
			"duration_ps", rec.DurationPs, "throughput_bps", tput)
	}
	rec.Timeline = o.sampler.Finish(rec.Label, rec.DurationPs)
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
