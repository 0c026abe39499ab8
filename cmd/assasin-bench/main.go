// Command assasin-bench regenerates the tables and figures of the ASSASIN
// paper's evaluation (Section VI). Each experiment simulates complete
// computational SSDs and prints the corresponding artifact.
//
// Usage:
//
//	assasin-bench -exp all            # everything (several minutes)
//	assasin-bench -exp fig13          # one artifact
//	assasin-bench -exp fig15 -sf 0.01 # bigger TPC-H dataset
//	assasin-bench -quick -verify      # fast run with functional checks
//	assasin-bench -parallel 1         # force sequential simulation runs
//	assasin-bench -json out/          # also write BENCH_<exp>.json files
//	assasin-bench -exp table2 -quick -trace t.json -metrics m.json
//	assasin-bench -exp table2 -quick -report  # per-run stall attribution
//	assasin-bench -exp table2 -quick -timeline out/  # per-run sampled timelines
//	assasin-bench -exp table2 -quick -report -diff  # Baseline-vs-AssasinSb deltas
//	assasin-bench -exp table2 -quick -requests 4    # per-run slowest-request tables
//	assasin-bench -exp table2 -quick -kprof 10 -kprof-dir out/  # guest hot blocks + pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"assasin/internal/buildinfo"
	"assasin/internal/experiments"
	"assasin/internal/obs"
	"assasin/internal/profiling"
	"assasin/internal/runpool"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/diff"
	"assasin/internal/telemetry/kprof"
	"assasin/internal/telemetry/reqtrace"
	"assasin/internal/telemetry/slo"
	"assasin/internal/telemetry/timeline"
)

// stopProfiles finalizes -cpuprofile/-memprofile output; every exit path
// must call it because os.Exit skips defers.
var stopProfiles = func() {}

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiments: all, "+strings.Join(experiments.ExperimentIDs(), ", "))
		quick    = flag.Bool("quick", false, "use the small test-scale configuration")
		verify   = flag.Bool("verify", false, "cross-check offload outputs against reference implementations")
		cores    = flag.Int("cores", 0, "override compute engine count")
		sf       = flag.Float64("sf", 0, "override TPC-H scale factor")
		mb       = flag.Float64("mb", 0, "override standalone kernel input MB")
		parallel = flag.Int("parallel", runpool.DefaultWorkers(), "max concurrent simulation runs (1 = sequential; results are identical)")
		jsonDir  = flag.String("json", "", "directory to write BENCH_<exp>.json result files into")
		tracePth = flag.String("trace", "", "write a Chrome trace_event JSON file (open in Perfetto; forces -parallel 1)")
		metrPth  = flag.String("metrics", "", "write a flat telemetry metrics JSON file (parallel-safe: per-run sinks merged at run boundaries)")
		tlDir    = flag.String("timeline", "", "directory to write per-run TIMELINE_<exp>_<run>.json sampled timelines into")
		tlIvalUs = flag.Float64("timeline-interval-us", 10, "timeline sampling interval in simulated microseconds")
		diffRuns = flag.Bool("diff", false, "print per-kernel Baseline-vs-AssasinSb differential reports")
		report   = flag.Bool("report", false, "print a per-run bottleneck-attribution report (parallel-safe)")
		requests = flag.Int("requests", 0, "trace per-request critical paths and print the K slowest requests per run (0 = off; parallel-safe)")
		kprofN   = flag.Int("kprof", 0, "profile guest kernels and print the N hottest basic blocks per experiment (0 = off; parallel-safe)")
		kprofDir = flag.String("kprof-dir", "", "directory to write PROFILE_<exp>.json/.pb.gz merged guest profiles into (implies -kprof 10 when unset)")
		loadSpec = flag.String("load", "", "open-loop load overrides for the load experiment, semicolon-separated key=value (requests, rate, tenants, read, pages, keys, zipfs, zipfv, drives, seed, offloadmb, offloadtenant, window, buckets)")
		sloSpec  = flag.String("slo", "", "SLO objectives as tenant:target[:latency], comma-separated (e.g. 'gold:99.9:400us,all:99:1ms'); empty uses per-tenant defaults")
		logLevel = flag.String("log-level", "warn", "log verbosity: debug, info, warn, error")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocs heap profile to this file on exit")
		version  = flag.Bool("version", false, "print version and build information, then exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get().Line("assasin-bench"))
		return
	}

	if err := experiments.ValidateOverrides(*cores, *parallel, *sf, *mb); err != nil {
		fatal(err)
	}
	if *kprofDir != "" && *kprofN <= 0 {
		*kprofN = 10
	}
	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stop()

	log, err := obs.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		fatal(err)
	}
	runpool.SetLogger(log)

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
	cfg.Workers = *parallel
	cfg.Log = log

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
	cfg.Load = &lc

	if ps := *tlIvalUs * 1e6; !(ps >= 1 && ps < math.MaxInt64) {
		fatal(fmt.Errorf("-timeline-interval-us must be finite and at least 1 ps (1e-06), got %g", *tlIvalUs))
	}

	// Every run observes privately and the root absorbs it (see
	// experiments.Observer); run records are re-ordered deterministically at
	// experiment boundaries. So metrics, timelines, request traces and
	// attribution reports are parallel-safe, and only trace capture, whose
	// events the root appends in the order runs finish, forces sequential
	// simulation.
	var forcedBy []string
	if *tracePth != "" {
		forcedBy = append(forcedBy, "-trace")
	}
	if workers, warning := runpool.SequentialOverride(cfg.Workers, forcedBy...); warning != "" {
		fmt.Fprintln(os.Stderr, "assasin-bench: "+warning)
		cfg.Workers = workers
	}

	// -report and -diff read each run's counters and component gauges from
	// its private sink, which only a root sink opens.
	var tel *telemetry.Sink
	if *tracePth != "" || *metrPth != "" || *tlDir != "" || *report || *diffRuns {
		tel = telemetry.NewSink()
		tel.Log = log
		if *tracePth == "" {
			// Metrics-only root: the runs' private sinks record no events.
			tel.MaxEvents = -1
		}
		cfg.Telemetry = tel
	}
	if *tlDir != "" {
		if err := os.MkdirAll(*tlDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if *tlDir != "" || *diffRuns {
		cfg.Timeline = &timeline.Config{IntervalPs: int64(*tlIvalUs * 1e6)}
	}
	cfg.Requests = *requests
	cfg.KProf = *kprofN > 0
	if *kprofDir != "" {
		if err := os.MkdirAll(*kprofDir, 0o755); err != nil {
			fatal(err)
		}
	}
	var coll *obs.Collector
	if *report || *diffRuns {
		coll = obs.NewCollector()
	}
	// Run records are buffered under a mutex and drained at experiment
	// boundaries in a deterministic order, so -report, -diff, and -requests
	// output is byte-identical for any -parallel setting (see drainRecords).
	var recMu sync.Mutex
	var pending []analyze.Run
	collectRecs := coll != nil || *requests > 0 || *kprofN > 0
	var curExp string
	if collectRecs || *tlDir != "" {
		cfg.OnRunDone = func(rec analyze.Run) {
			if collectRecs {
				recMu.Lock()
				pending = append(pending, rec)
				recMu.Unlock()
			}
			if *tlDir != "" && rec.Timeline != nil {
				name := "TIMELINE_" + curExp + "_" + strings.ReplaceAll(rec.Label, "/", "_") + ".json"
				if err := rec.Timeline.WriteFile(filepath.Join(*tlDir, name)); err != nil {
					fmt.Fprintf(os.Stderr, "assasin-bench: %s: %v\n", name, err)
				}
			}
		}
	}

	names, err := experiments.ParseNames(*exp)
	if err != nil {
		fatal(err)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fatal(err)
		}
	}

	var runner experiments.Runner
	for _, name := range names {
		curExp = name
		start := time.Now()
		rows, text, err := runner.Run(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "assasin-bench: %s: %v\n", name, err)
			stopProfiles()
			os.Exit(1)
		}
		fmt.Print(text)
		if collectRecs {
			recMu.Lock()
			recs := pending
			pending = nil
			recMu.Unlock()
			drainRecords(name, recs, coll, *requests, *jsonDir, *kprofN, *kprofDir)
		}
		wall := time.Since(start).Seconds()
		if lr, ok := rows.(*experiments.LoadResult); ok && *jsonDir != "" {
			if err := writeSLOArtifact(*jsonDir, name, lr); err != nil {
				fmt.Fprintf(os.Stderr, "assasin-bench: %s: %v\n", name, err)
				stopProfiles()
				os.Exit(1)
			}
			fmt.Printf("[slo: %s, %d drives]\n", filepath.Join(*jsonDir, "SLO_"+name+".json"), len(lr.Drives))
		}
		if *jsonDir != "" {
			var snap *telemetry.MetricsSnapshot
			if tel != nil {
				s := tel.Metrics()
				snap = &s
			}
			if err := writeJSON(*jsonDir, name, cfg, rows, wall, snap); err != nil {
				fmt.Fprintf(os.Stderr, "assasin-bench: %s: %v\n", name, err)
				stopProfiles()
				os.Exit(1)
			}
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", name, wall)
	}

	if coll != nil && *report {
		reports := coll.Reports()
		analyze.SortReports(reports)
		fmt.Print(analyze.FormatReports(reports))
		if *jsonDir != "" {
			f, err := os.Create(filepath.Join(*jsonDir, "BENCH_report.json"))
			if err != nil {
				fatal(err)
			}
			if err := analyze.WriteJSON(f, reports); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("[attribution: %s, %d runs]\n", filepath.Join(*jsonDir, "BENCH_report.json"), len(reports))
		}
	}
	if *diffRuns {
		printArchDiffs(coll)
	}

	if tel != nil {
		if *tracePth != "" {
			if err := tel.WriteChromeTraceFile(*tracePth); err != nil {
				fatal(err)
			}
			fmt.Printf("[trace: %s, %d events]\n", *tracePth, tel.EventCount())
		}
		if *metrPth != "" {
			if err := tel.WriteMetricsFile(*metrPth); err != nil {
				fatal(err)
			}
			fmt.Printf("[metrics: %s]\n", *metrPth)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "assasin-bench: %v\n", err)
	stopProfiles()
	os.Exit(2)
}

// drainRecords processes one experiment's buffered run records. Records are
// sorted by (label, cores, input bytes, duration) — a deterministic total
// order over every experiment's fan-out — before observation, so collector
// run ids, attribution reports, and slowest-request tables are independent
// of parallel completion order. Each record's metrics come from the run's
// private sink, so the order of observation cannot change a report.
func drainRecords(exp string, recs []analyze.Run, coll *obs.Collector, requests int, jsonDir string, kprofN int, kprofDir string) {
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Cores != b.Cores {
			return a.Cores < b.Cores
		}
		if a.InputBytes != b.InputBytes {
			return a.InputBytes < b.InputBytes
		}
		return a.DurationPs < b.DurationPs
	})
	var sums []*reqtrace.Summary
	for _, r := range recs {
		coll.ObserveRun(r)
		if r.Requests != nil {
			sums = append(sums, r.Requests)
		}
	}
	if kprofN > 0 {
		var profs []kprof.Labeled
		for _, r := range recs {
			if r.Profile != nil {
				profs = append(profs, kprof.Labeled{Label: r.Profile.Label, Profile: r.Profile})
			}
		}
		if len(profs) > 0 {
			merged := kprof.MergeLabeled(profs)
			merged.Label = exp
			fmt.Print(merged.FormatHotBlocks(kprofN))
			if kprofDir != "" {
				if err := writeMergedProfile(kprofDir, exp, merged); err != nil {
					fatal(err)
				}
				fmt.Printf("[profile: %s/PROFILE_%s.{json,pb.gz}, %d runs]\n", kprofDir, exp, len(profs))
			}
		}
	}
	if requests <= 0 || len(sums) == 0 {
		return
	}
	for _, sum := range sums {
		if err := sum.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if jsonDir != "" {
		path := filepath.Join(jsonDir, "REQUESTS_"+exp+".json")
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := reqtrace.WriteSummariesJSON(f, sums); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("[requests: %s, %d runs]\n", path, len(sums))
	}
}

// writeSLOArtifact writes a load experiment's full SLO result — per-drive
// objective statuses with alert history, live window snapshots, and the
// per-tenant sustained-rate/P99 table — as SLO_<exp>.json.
func writeSLOArtifact(dir, exp string, lr *experiments.LoadResult) error {
	b, err := json.MarshalIndent(lr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "SLO_"+exp+".json"), append(b, '\n'), 0o644)
}

// writeMergedProfile writes an experiment's merged guest profile as JSON
// (diffable with assasin-diff) and gzipped pprof profile.proto.
func writeMergedProfile(dir, exp string, p *kprof.Profile) error {
	js, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "PROFILE_"+exp+".json"), append(js, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "PROFILE_"+exp+".pb.gz"))
	if err != nil {
		return err
	}
	if err := p.WritePprof(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printArchDiffs emits one differential report per kernel that ran on both
// the Baseline and AssasinSb architectures, in sorted kernel order.
func printArchDiffs(coll *obs.Collector) {
	reports := coll.Reports()
	analyze.SortReports(reports)
	byKernel := make(map[string]map[string]*analyze.RunReport)
	var names []string
	for _, rep := range reports {
		m := byKernel[rep.Kernel]
		if m == nil {
			m = make(map[string]*analyze.RunReport)
			byKernel[rep.Kernel] = m
			names = append(names, rep.Kernel)
		}
		if _, ok := m[rep.Arch]; !ok {
			m[rep.Arch] = rep
		}
	}
	sort.Strings(names)
	printed := 0
	for _, k := range names {
		a, b := byKernel[k]["Baseline"], byKernel[k]["AssasinSb"]
		if a == nil || b == nil {
			continue
		}
		fmt.Print(diff.Compare(*coll.Run(a.ID), *coll.Run(b.ID)).Format())
		fmt.Println()
		printed++
	}
	if printed == 0 {
		fmt.Println("[diff: no kernel ran on both Baseline and AssasinSb]")
	}
}

// benchEnvelope is the schema of a BENCH_<exp>.json file. Telemetry holds
// the sink's cumulative metrics snapshot taken after this experiment
// completed; it is present only when -trace, -metrics, -timeline, -report
// or -diff opens the sink.
type benchEnvelope struct {
	Experiment  string                     `json:"experiment"`
	Config      experiments.Config         `json:"config"`
	WallSeconds float64                    `json:"wall_seconds"`
	Rows        any                        `json:"rows"`
	Telemetry   *telemetry.MetricsSnapshot `json:"telemetry,omitempty"`
}

func writeJSON(dir, name string, cfg experiments.Config, rows any, wall float64, snap *telemetry.MetricsSnapshot) error {
	b, err := json.MarshalIndent(benchEnvelope{
		Experiment:  name,
		Config:      cfg,
		WallSeconds: wall,
		Rows:        rows,
		Telemetry:   snap,
	}, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	return os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), b, 0o644)
}
