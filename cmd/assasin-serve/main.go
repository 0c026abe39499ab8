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
// exits 0. A second signal aborts immediately with the signal's default
// (non-zero) status.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"assasin/internal/buildinfo"
	"assasin/internal/experiments"
	"assasin/internal/obs"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/slo"
	"assasin/internal/telemetry/window"
)

// main cancels run's context on the first SIGINT or SIGTERM and then
// restores the signals' default action, so a second one aborts at once.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, serves the experiments and returns
// the exit status, 2 for an error and 1 for a failed experiment. Cancelling
// ctx shuts it down: no new experiment starts, the one in flight drains and
// publishes its final snapshots, and run returns.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("assasin-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := experiments.NewFlags()
	opts.Requests = 8
	opts.LogLevel = "info"
	opts.Register(fs)
	opts.RegisterScale(fs)
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 lets the OS choose)")
	once := fs.Bool("once", false, "exit once the experiments finish instead of serving until interrupted")
	kprofOn := fs.Bool("kprof", true, "profile guest kernels per run for /runs/{id}/profile and /runs/{id}/profile.pb.gz")
	if status, done := opts.Parse(fs, args, stdout); done {
		return status
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "assasin-serve: %v\n", err)
		return 2
	}

	// The root sink is metrics-only (a timeline opens it). Each run
	// observes privately and the root absorbs it before OnRunDone (see
	// experiments.Observer), which stores the run under /runs and publishes
	// the root's snapshot, so /metrics covers every run so far. The HTTP
	// side only ever reads published snapshots.
	opts.Timeline = true
	cfg, names, stop, err := opts.Setup(stderr)
	if err != nil {
		return fail(err)
	}
	defer stop()
	log, tel := cfg.Log, cfg.Telemetry
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
	cfg.Load.OnEval = func(drive int, st *slo.Status, live *window.Snapshot) {
		coll.PublishSLO(st)
		coll.PublishLive(live)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "assasin-serve: listening on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: obs.NewHandler(coll)}
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			serveErr <- err
		}
	}()
	coll.MarkReady()

	runErr := make(chan error, 1)
	go func() {
		var runner experiments.Runner
		for _, name := range names {
			if ctx.Err() != nil {
				log.Info("drain: stopping before next experiment", "next", name)
				runErr <- nil
				return
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
			fmt.Fprint(stdout, text)
			log.Info("experiment complete", "exp", name,
				"wall_seconds", time.Since(start).Seconds(), "runs", coll.RunsCompleted())
		}
		runErr <- nil
	}()

	// Graceful shutdown: cancellation stops new work and drains the
	// experiment in flight (its final snapshots publish as usual). A server
	// that stops serving ends the command at once.
	var failed bool
	select {
	case err := <-serveErr:
		return fail(err)
	case err := <-runErr:
		failed = err != nil
		if !*once {
			select {
			case err := <-serveErr:
				return fail(err)
			case <-ctx.Done():
				log.Info("shutdown requested; shutting down")
			}
		}
	case <-ctx.Done():
		log.Info("shutdown requested; draining current experiment")
		select {
		case err := <-serveErr:
			return fail(err)
		case err := <-runErr:
			failed = err != nil
		}
	}

	shutdown, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdown); err != nil {
		log.Warn("server shutdown", "err", err)
	}
	if failed {
		return 1
	}
	return 0
}
