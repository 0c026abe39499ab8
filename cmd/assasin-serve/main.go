// Command assasin-serve runs the benchmark experiments with a live
// observability server attached: while the fan-out executes, the HTTP
// endpoints expose Prometheus text-format metrics, per-run bottleneck
// attribution reports, pprof profiles, and health/readiness probes.
//
// Usage:
//
//	assasin-serve                            # all experiments, port chosen by the OS
//	assasin-serve -addr 127.0.0.1:9090       # fixed port
//	assasin-serve -exp table2,fig13 -quick   # subset at test scale
//	assasin-serve -once -quick               # exit when the experiments finish
//
// Endpoints: /healthz, /readyz, /metrics, /slo, /live, /runs,
// /runs/{id}/report, /runs/{id}/timeline, /runs/{id}/requests,
// /runs/{id}/requests/{rid}, /runs/{id}/profile, /runs/{id}/profile.pb.gz
// (fetch and `go tool pprof` it), /runs/{id}/compare/{other},
// /debug/pprof/. Scraping never perturbs simulation results: the sim
// goroutine publishes immutable snapshots at run boundaries (and, for the
// load experiment, at every SLO burn-evaluation boundary) and the
// handlers only read published state.
//
// The "load" experiment sustains open-loop multi-tenant traffic and
// streams its SLO state live: poll /slo for objective status, error
// budgets, and firing burn-rate alerts, /live for current-window rates
// and rolling percentiles. Tune it with -load
// ("requests=100000;rate=3e5;tenants=gold,silver") and -slo
// ("gold:99.9:400us,all:99:1ms").
//
// On SIGINT/SIGTERM the server drains: no new experiment starts, the one
// in flight finishes and publishes its final snapshots, then the process
// exits 0. A second signal aborts immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"assasin/internal/buildinfo"
	"assasin/internal/experiments"
	"assasin/internal/obs"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/slo"
	"assasin/internal/telemetry/timeline"
	"assasin/internal/telemetry/window"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:0", "listen address (port 0 lets the OS choose)")
		exp      = flag.String("exp", "all", "comma-separated experiments: all, "+strings.Join(experiments.ExperimentIDs(), ", "))
		quick    = flag.Bool("quick", false, "use the small test-scale configuration")
		verify   = flag.Bool("verify", false, "cross-check offload outputs against reference implementations")
		cores    = flag.Int("cores", 0, "override compute engine count")
		sf       = flag.Float64("sf", 0, "override TPC-H scale factor")
		mb       = flag.Float64("mb", 0, "override standalone kernel input MB")
		once     = flag.Bool("once", false, "exit once the experiments finish instead of serving until interrupted")
		requests = flag.Int("requests", 8, "retain the K slowest requests per run for /runs/{id}/requests (0 = off)")
		kprofOn  = flag.Bool("kprof", true, "profile guest kernels per run for /runs/{id}/profile and /runs/{id}/profile.pb.gz")
		loadSpec = flag.String("load", "", "open-loop load overrides, semicolon-separated key=value (requests, rate, tenants, read, pages, keys, zipfs, zipfv, drives, seed, offloadmb, offloadtenant, window, buckets)")
		sloSpec  = flag.String("slo", "", "SLO objectives as tenant:target[:latency], comma-separated (e.g. 'gold:99.9:400us,all:99:1ms'); empty uses per-tenant defaults")
		logLevel = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		version  = flag.Bool("version", false, "print version and build information, then exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get().Line("assasin-serve"))
		return
	}

	log, err := obs.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		fatal(err)
	}

	if err := experiments.ValidateOverrides(*cores, 1, *sf, *mb); err != nil {
		fatal(err)
	}
	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *verify {
		cfg.Verify = true
	}
	if *cores > 0 {
		cfg.Cores = *cores
	}
	if *sf > 0 {
		cfg.TPCHScale = *sf
	}
	if *mb > 0 {
		cfg.KernelMB = *mb
	}
	cfg.Log = log

	names, err := experiments.ParseNames(*exp)
	if err != nil {
		fatal(err)
	}

	// The root sink is metrics-only. Each run observes privately and the
	// root absorbs it before OnRunDone (see experiments.Observer), which
	// stores the run under /runs and publishes the root's snapshot, so
	// /metrics covers every run so far. The HTTP side only ever reads
	// published snapshots.
	tel := telemetry.NewSink()
	tel.MaxEvents = -1
	tel.Log = log
	cfg.Telemetry = tel
	cfg.Timeline = &timeline.Config{}
	cfg.Requests = *requests
	cfg.KProf = *kprofOn
	coll := obs.NewCollector()
	coll.SetBuildInfo(buildinfo.Get().PromLabels()...)
	cfg.OnRunDone = func(run analyze.Run) {
		coll.ObserveRun(run)
		coll.PublishMetrics(tel.Metrics())
	}

	// The load experiment streams its SLO state: every burn-evaluation
	// boundary publishes a fresh status + live snapshot, so /slo and /live
	// move in sim time while the run executes (cfg.Workers stays at its
	// sequential default, so drives run one at a time and publications stay
	// ordered).
	lc := experiments.DefaultLoad()
	if *quick {
		lc = experiments.QuickLoad()
	}
	if *loadSpec != "" {
		if lc, err = experiments.ParseLoadSpec(*loadSpec, lc); err != nil {
			fatal(err)
		}
	}
	if *sloSpec != "" {
		objs, err := slo.ParseSpec(*sloSpec)
		if err != nil {
			fatal(err)
		}
		lc.Objectives = objs
	}
	lc.OnEval = func(drive int, st *slo.Status, live *window.Snapshot) {
		coll.PublishSLO(st)
		coll.PublishLive(live)
	}
	cfg.Load = &lc

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("assasin-serve: listening on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: obs.NewHandler(coll)}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()
	coll.MarkReady()

	stop := make(chan struct{})
	runErr := make(chan error, 1)
	go func() {
		var runner experiments.Runner
		for _, name := range names {
			select {
			case <-stop:
				log.Info("drain: stopping before next experiment", "next", name)
				runErr <- nil
				return
			default:
			}
			log.Info("experiment start", "exp", name)
			start := time.Now()
			res, text, err := runner.Run(name, cfg)
			if err != nil {
				log.Error("experiment failed", "exp", name, "err", err)
				runErr <- err
				return
			}
			if lr, ok := res.(*experiments.LoadResult); ok && len(lr.Drives) > 0 {
				// End-of-run state: the last boundary publication can lag the
				// final completions by up to one bucket.
				coll.PublishSLO(lr.Drives[0].Status)
				coll.PublishLive(lr.Drives[0].Live)
			}
			fmt.Print(text)
			log.Info("experiment complete", "exp", name,
				"wall_seconds", time.Since(start).Seconds(), "runs", coll.RunsCompleted())
		}
		runErr <- nil
	}()

	// Graceful shutdown: the first signal stops new work and drains the
	// experiment in flight (its final snapshots publish as usual); a second
	// signal aborts without waiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var failed bool
	select {
	case err := <-runErr:
		failed = err != nil
		if !*once {
			s := <-sig
			log.Info("signal received; shutting down", "signal", s.String())
		}
	case s := <-sig:
		log.Info("signal received; draining current experiment", "signal", s.String())
		close(stop)
		go func() {
			<-sig
			log.Error("second signal; aborting")
			os.Exit(1)
		}()
		if err := <-runErr; err != nil {
			failed = true
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Warn("server shutdown", "err", err)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "assasin-serve: %v\n", err)
	os.Exit(2)
}
