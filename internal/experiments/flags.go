package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"assasin/internal/buildinfo"
	"assasin/internal/obs"
	"assasin/internal/profiling"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/kprof"
	"assasin/internal/telemetry/slo"
	"assasin/internal/telemetry/timeline"
)

// Flags are the run options assasin-bench, assasin-sim and assasin-serve
// share. Register, RegisterScale and RegisterObserve add them to a
// command's flag set, with the field values at that moment as defaults;
// Setup checks every value once and turns them into a Config. A flag whose
// meaning differs between commands stays with its command, which may point
// it at a field here (assasin-bench's -parallel at Workers, assasin-sim's
// -cores and -mb) or set Timeline and Diff from its own -timeline and -diff.
type Flags struct {
	// Scale set (assasin-bench, assasin-serve).
	exp, loadSpec, sloSpec string
	quick, verify          bool
	sf, MB                 float64
	Cores                  int
	// Workers is the pool width Setup validates and copies to Config.
	Workers int

	// Observation set (assasin-bench, assasin-sim; assasin-serve takes
	// Register's -requests and -log-level only).
	Trace, Metrics, KProfDir, LogLevel string
	Report, Version                    bool
	Requests, KProf                    int
	intervalUs                         float64
	cpuProfile, memProfile             string

	// Timeline and Diff say that the command writes per-run timelines or
	// compares runs; either attaches a timeline sampler to every run.
	Timeline, Diff bool

	scale bool
}

// NewFlags returns the shared options at their defaults: every experiment,
// 10 µs timeline samples and warn-level logging.
func NewFlags() *Flags {
	return &Flags{exp: "all", intervalUs: timeline.DefaultIntervalPs / 1e6, LogLevel: "warn"}
}

// Register adds the flags every command takes: -requests, -log-level and
// -version.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Requests, "requests", f.Requests, "trace per-request critical paths and keep the K slowest requests per run (0 = off)")
	fs.StringVar(&f.LogLevel, "log-level", f.LogLevel, "log verbosity: debug, info, warn, error")
	fs.BoolVar(&f.Version, "version", f.Version, "print version and build information, then exit")
}

// RegisterScale adds the experiment selection and scale flags; Setup then
// parses -exp and fills the Config's scale and Load from them.
func (f *Flags) RegisterScale(fs *flag.FlagSet) {
	f.scale = true
	fs.StringVar(&f.exp, "exp", f.exp, "comma-separated experiments: all, "+strings.Join(ExperimentIDs(), ", "))
	fs.BoolVar(&f.quick, "quick", f.quick, "use the small test-scale configuration")
	fs.BoolVar(&f.verify, "verify", f.verify, "cross-check offload outputs against reference implementations")
	fs.IntVar(&f.Cores, "cores", f.Cores, "override compute engine count")
	fs.Float64Var(&f.sf, "sf", f.sf, "override TPC-H scale factor")
	fs.Float64Var(&f.MB, "mb", f.MB, "override standalone kernel input MB")
	fs.StringVar(&f.loadSpec, "load", f.loadSpec, "open-loop load overrides for the load experiment, semicolon-separated key=value (requests, rate, tenants, read, pages, keys, zipfs, zipfv, drives, seed, offloadmb, offloadtenant, window, buckets)")
	fs.StringVar(&f.sloSpec, "slo", f.sloSpec, "SLO objectives as tenant:target[:latency], comma-separated (e.g. 'gold:99.9:400us,all:99:1ms'); empty uses per-tenant defaults")
}

// RegisterObserve adds the observation flags beyond Register's: trace,
// metrics, attribution, guest profiling and host profiling.
func (f *Flags) RegisterObserve(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", f.Trace, "write a Chrome trace_event JSON file (open in Perfetto; runs simulations sequentially)")
	fs.StringVar(&f.Metrics, "metrics", f.Metrics, "write a flat telemetry metrics JSON file (per-run sinks merged at run boundaries)")
	fs.Float64Var(&f.intervalUs, "timeline-interval-us", f.intervalUs, "timeline sampling interval in simulated microseconds")
	fs.BoolVar(&f.Report, "report", f.Report, "print each run's bottleneck-attribution report")
	fs.IntVar(&f.KProf, "kprof", f.KProf, "profile guest kernels and print the N hottest basic blocks (0 = off)")
	fs.StringVar(&f.KProfDir, "kprof-dir", f.KProfDir, "directory to write guest profiles into as JSON, gzipped pprof and, in assasin-sim, folded stacks (implies -kprof 10 when unset)")
	fs.StringVar(&f.cpuProfile, "cpuprofile", f.cpuProfile, "write a CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", f.memProfile, "write an allocs heap profile to this file on exit")
}

// Parse parses args into fs and reports whether the command is done, and
// with what exit status: after -h (0), after a bad flag, which fs has
// already reported (2), or after -version prints the build line (0).
func (f *Flags) Parse(fs *flag.FlagSet, args []string, stdout io.Writer) (status int, done bool) {
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0, true
	} else if err != nil {
		return 2, true
	}
	if f.Version {
		fmt.Fprintln(stdout, buildinfo.Get().Line(fs.Name()))
		return 0, true
	}
	return 0, false
}

// Setup checks every value once, then returns the Config the flags
// describe, the -exp names (RegisterScale only) and a function that ends
// the -cpuprofile and -memprofile capture, for the caller to defer. Logs go
// to stderr. It creates the -kprof-dir directory, with -kprof 10 when
// -kprof is 0.
func (f *Flags) Setup(stderr io.Writer) (Config, []string, func(), error) {
	cfg, names, err := f.config(stderr)
	if err != nil {
		return Config{}, nil, nil, err
	}
	stop, err := profiling.Start(f.cpuProfile, f.memProfile)
	return cfg, names, stop, err
}

func (f *Flags) config(stderr io.Writer) (Config, []string, error) {
	log, err := obs.NewLogger(stderr, f.LogLevel)
	if err != nil {
		return Config{}, nil, err
	}
	if err := ValidateOverrides(f.Cores, f.Workers, f.sf, f.MB); err != nil {
		return Config{}, nil, err
	}
	if f.Requests < 0 {
		return Config{}, nil, fmt.Errorf("-requests must be >= 0, got %d", f.Requests)
	}
	if f.KProf < 0 {
		return Config{}, nil, fmt.Errorf("-kprof must be >= 0, got %d", f.KProf)
	}
	if ps := f.intervalUs * 1e6; !(ps >= 1 && ps < math.MaxInt64) {
		return Config{}, nil, fmt.Errorf("-timeline-interval-us must be finite and at least 1 ps (1e-06), got %g", f.intervalUs)
	}
	var cfg Config
	var names []string
	if f.scale {
		if names, err = ParseNames(f.exp); err != nil {
			return Config{}, nil, err
		}
		if cfg, err = f.scaled(); err != nil {
			return Config{}, nil, err
		}
	}
	if f.KProfDir != "" {
		if f.KProf == 0 {
			f.KProf = 10
		}
		if err := os.MkdirAll(f.KProfDir, 0o755); err != nil {
			return Config{}, nil, err
		}
	}
	cfg.Workers = f.Workers
	cfg.Log = log
	if cfg.Telemetry = f.rootSink(); cfg.Telemetry != nil {
		cfg.Telemetry.Log = log
	}
	if f.Timeline || f.Diff {
		cfg.Timeline = &timeline.Config{IntervalPs: int64(f.intervalUs * 1e6)}
	}
	cfg.Requests = f.Requests
	cfg.KProf = f.KProf > 0
	return cfg, names, nil
}

// scaled is Default or Quick with the -verify, -cores, -sf and -mb
// overrides, its Load DefaultLoad or QuickLoad with the -load and -slo
// overrides.
func (f *Flags) scaled() (Config, error) {
	cfg, lc := Default(), DefaultLoad()
	if f.quick {
		cfg, lc = Quick(), QuickLoad()
	}
	if f.verify {
		cfg.Verify = true
	}
	if f.Cores > 0 {
		cfg.Cores = f.Cores
	}
	if f.sf > 0 {
		cfg.TPCHScale = f.sf
	}
	if f.MB > 0 {
		cfg.KernelMB = f.MB
	}
	var err error
	if f.loadSpec != "" {
		if lc, err = ParseLoadSpec(f.loadSpec, lc); err != nil {
			return cfg, err
		}
	}
	if f.sloSpec != "" {
		if lc.Objectives, err = slo.ParseSpec(f.sloSpec); err != nil {
			return cfg, err
		}
	}
	cfg.Load = &lc
	return cfg, nil
}

// rootSink is the one rule for the root sink: it opens for a trace,
// metrics, timeline, report or diff, because the last four read each run's
// counters and gauges from its private sink, and it records events only
// for a trace (see Observer).
func (f *Flags) rootSink() *telemetry.Sink {
	if f.Trace == "" && f.Metrics == "" && !f.Timeline && !f.Report && !f.Diff {
		return nil
	}
	tel := telemetry.NewSink()
	if f.Trace == "" {
		tel.MaxEvents = -1
	}
	return tel
}

// WriteArtifacts writes the files the observation flags name: tel's Chrome
// trace (-trace) and metrics snapshot (-metrics) when tel is non-nil, and
// the guest profile p, when non-nil and -kprof-dir is set, as <stem>.json
// (diffable with assasin-diff) and <stem>.pb.gz (gzipped pprof
// profile.proto) in that directory.
func (f *Flags) WriteArtifacts(tel *telemetry.Sink, p *kprof.Profile, stem string) error {
	if tel != nil && f.Trace != "" {
		if err := tel.WriteChromeTraceFile(f.Trace); err != nil {
			return err
		}
	}
	if tel != nil && f.Metrics != "" {
		if err := tel.WriteMetricsFile(f.Metrics); err != nil {
			return err
		}
	}
	if p == nil || f.KProfDir == "" {
		return nil
	}
	js, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(f.KProfDir, stem+".json"), append(js, '\n'), 0o644); err != nil {
		return err
	}
	pb, err := p.Pprof()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(f.KProfDir, stem+".pb.gz"), pb, 0o644)
}
