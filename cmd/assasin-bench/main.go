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
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"assasin/internal/experiments"
	"assasin/internal/obs"
	"assasin/internal/runpool"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/diff"
	"assasin/internal/telemetry/kprof"
	"assasin/internal/telemetry/reqtrace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs the experiments and returns the
// exit status, 2 for an error and 1 for a failed experiment.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("assasin-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := experiments.NewFlags()
	opts.Register(fs)
	opts.RegisterScale(fs)
	opts.RegisterObserve(fs)
	fs.IntVar(&opts.Workers, "parallel", runpool.DefaultWorkers(), "max concurrent simulation runs (1 = sequential; results are identical)")
	jsonDir := fs.String("json", "", "directory to write BENCH_<exp>.json result files into")
	tlDir := fs.String("timeline", "", "directory to write per-run TIMELINE_<exp>_<run>.json sampled timelines into")
	fs.BoolVar(&opts.Diff, "diff", false, "print per-kernel Baseline-vs-AssasinSb differential reports")
	if status, done := opts.Parse(fs, args, stdout); done {
		return status
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "assasin-bench: %v\n", err)
		return 2
	}

	opts.Timeline = *tlDir != ""
	cfg, names, stop, err := opts.Setup(stderr)
	if err != nil {
		return fail(err)
	}
	defer stop()
	runpool.SetLogger(cfg.Log)
	for _, dir := range []string{*tlDir, *jsonDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fail(err)
			}
		}
	}

	// Every run observes privately and the root absorbs it (see
	// experiments.Observer); run records are re-ordered deterministically at
	// experiment boundaries. So metrics, timelines, request traces and
	// attribution reports are parallel-safe, and only trace capture, whose
	// events the root appends in the order runs finish, forces sequential
	// simulation.
	var forcedBy []string
	if opts.Trace != "" {
		forcedBy = append(forcedBy, "-trace")
	}
	if workers, warning := runpool.SequentialOverride(cfg.Workers, forcedBy...); warning != "" {
		fmt.Fprintln(stderr, "assasin-bench: "+warning)
		cfg.Workers = workers
	}

	var coll *obs.Collector
	if opts.Report || opts.Diff {
		coll = obs.NewCollector()
	}
	// Run records are buffered under a mutex and drained at experiment
	// boundaries in a deterministic order, so -report, -diff, and -requests
	// output is byte-identical for any -parallel setting (see drainRecords).
	var recMu sync.Mutex
	var pending []analyze.Run
	collectRecs := coll != nil || opts.Requests > 0 || opts.KProf > 0
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
					fmt.Fprintf(stderr, "assasin-bench: %s: %v\n", name, err)
				}
			}
		}
	}

	var runner experiments.Runner
	for _, name := range names {
		curExp = name
		start := time.Now()
		rows, text, err := runner.Run(name, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "assasin-bench: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprint(stdout, text)
		if collectRecs {
			recMu.Lock()
			recs := pending
			pending = nil
			recMu.Unlock()
			if err := drainRecords(stdout, name, recs, coll, opts, *jsonDir); err != nil {
				return fail(err)
			}
		}
		wall := time.Since(start).Seconds()
		if lr, ok := rows.(*experiments.LoadResult); ok && *jsonDir != "" {
			if err := writeSLOArtifact(*jsonDir, name, lr); err != nil {
				fmt.Fprintf(stderr, "assasin-bench: %s: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(stdout, "[slo: %s, %d drives]\n", filepath.Join(*jsonDir, "SLO_"+name+".json"), len(lr.Drives))
		}
		if *jsonDir != "" {
			var snap *telemetry.MetricsSnapshot
			if cfg.Telemetry != nil {
				s := cfg.Telemetry.Metrics()
				snap = &s
			}
			if err := writeJSON(*jsonDir, name, cfg, rows, wall, snap); err != nil {
				fmt.Fprintf(stderr, "assasin-bench: %s: %v\n", name, err)
				return 1
			}
		}
		fmt.Fprintf(stdout, "[%s completed in %.1fs]\n\n", name, wall)
	}

	if opts.Report {
		reports := coll.Reports()
		analyze.SortReports(reports)
		fmt.Fprint(stdout, analyze.FormatReports(reports))
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "BENCH_report.json")
			if err := writeFile(path, func(w io.Writer) error { return analyze.WriteJSON(w, reports) }); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "[attribution: %s, %d runs]\n", path, len(reports))
		}
	}
	if opts.Diff {
		printArchDiffs(stdout, coll)
	}

	if err := opts.WriteArtifacts(cfg.Telemetry, nil, ""); err != nil {
		return fail(err)
	}
	if opts.Trace != "" {
		fmt.Fprintf(stdout, "[trace: %s, %d events]\n", opts.Trace, cfg.Telemetry.EventCount())
	}
	if opts.Metrics != "" {
		fmt.Fprintf(stdout, "[metrics: %s]\n", opts.Metrics)
	}
	return 0
}

// drainRecords processes one experiment's buffered run records. Records are
// sorted by (label, cores, input bytes, duration) — a deterministic total
// order over every experiment's fan-out — before observation, so collector
// run ids, attribution reports, and slowest-request tables are independent
// of parallel completion order. Each record's metrics come from the run's
// private sink, so the order of observation cannot change a report.
func drainRecords(w io.Writer, exp string, recs []analyze.Run, coll *obs.Collector, opts *experiments.Flags, jsonDir string) error {
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
	var profs []kprof.Labeled
	for _, r := range recs {
		coll.ObserveRun(r)
		if r.Requests != nil {
			sums = append(sums, r.Requests)
		}
		if r.Profile != nil {
			profs = append(profs, kprof.Labeled{Label: r.Profile.Label, Profile: r.Profile})
		}
	}
	if len(profs) > 0 {
		merged := kprof.MergeLabeled(profs)
		merged.Label = exp
		fmt.Fprint(w, merged.FormatHotBlocks(opts.KProf))
		if err := opts.WriteArtifacts(nil, merged, "PROFILE_"+exp); err != nil {
			return err
		}
		if opts.KProfDir != "" {
			fmt.Fprintf(w, "[profile: %s/PROFILE_%s.{json,pb.gz}, %d runs]\n", opts.KProfDir, exp, len(profs))
		}
	}
	for _, sum := range sums {
		if err := sum.WriteText(w); err != nil {
			return err
		}
	}
	if jsonDir == "" || len(sums) == 0 {
		return nil
	}
	path := filepath.Join(jsonDir, "REQUESTS_"+exp+".json")
	if err := writeFile(path, func(f io.Writer) error { return reqtrace.WriteSummariesJSON(f, sums) }); err != nil {
		return err
	}
	fmt.Fprintf(w, "[requests: %s, %d runs]\n", path, len(sums))
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

// printArchDiffs emits one differential report per kernel that ran on both
// the Baseline and AssasinSb architectures, in sorted kernel order.
func printArchDiffs(w io.Writer, coll *obs.Collector) {
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
		fmt.Fprintln(w, diff.Compare(*coll.Run(a.ID), *coll.Run(b.ID)).Format())
		printed++
	}
	if printed == 0 {
		fmt.Fprintln(w, "[diff: no kernel ran on both Baseline and AssasinSb]")
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
