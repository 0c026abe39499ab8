// Command assasin-sim runs a single computational-storage offload on one
// simulated SSD configuration and prints throughput plus the core-level
// execution profile — the quickest way to poke at the simulator.
//
// Usage:
//
//	assasin-sim -arch AssasinSb -kernel stat -mb 4 -cores 8
//	assasin-sim -arch Baseline -kernel filter -mb 2
//	assasin-sim -arch UDP -kernel aes -mb 0.25 -adjusted
//	assasin-sim -kernel scan -trace trace.json -metrics metrics.json
//	assasin-sim -kernel stat -timeline tl.json -report
//	assasin-sim -kernel stat -requests 8 -requests-json reqs.json
//	assasin-sim -arch AssasinSb -kernel stat -diff baseline-metrics.json
//	assasin-sim -kernel stat -kprof 10 -kprof-dir prof/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"assasin/internal/cpu"
	"assasin/internal/experiments"
	"assasin/internal/ssd"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/diff"
	"assasin/internal/telemetry/reqtrace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs one offload and returns the
// exit status, 2 for any error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("assasin-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := experiments.NewFlags()
	opts.Register(fs)
	opts.RegisterObserve(fs)
	archName := fs.String("arch", "AssasinSb", ssd.ArchNames())
	kernel := fs.String("kernel", "stat", "workload: "+strings.Join(experiments.WorkloadNames(), ", "))
	fs.Float64Var(&opts.MB, "mb", 1, "input megabytes per stream")
	fs.IntVar(&opts.Cores, "cores", 8, "compute engines")
	adjusted := fs.Bool("adjusted", false, "apply Fig 20 timing adjustments")
	seed := fs.Int64("seed", 1, "input data seed")
	tlPth := fs.String("timeline", "", "write the run's sampled timeline JSON file")
	diffPth := fs.String("diff", "", "compare this run against a baseline JSON file (metrics, timeline, report, or BENCH envelope)")
	reqJSON := fs.String("requests-json", "", "write the request-trace summary as JSON (implies -requests 8 when unset)")
	if status, done := opts.Parse(fs, args, stdout); done {
		return status
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "assasin-sim: %v\n", err)
		return 2
	}

	if *reqJSON != "" && opts.Requests == 0 {
		opts.Requests = 8
	}
	arch, err := ssd.ParseArch(*archName)
	if err != nil {
		return fail(err)
	}
	opts.Timeline, opts.Diff = *tlPth != "", *diffPth != ""
	cfg, _, stop, err := opts.Setup(stderr)
	if err != nil {
		return fail(err)
	}
	defer stop()
	size := int(opts.MB * (1 << 20))
	size -= size % 64
	if size == 0 {
		return fail(fmt.Errorf("-mb %g rounds to 0 bytes (inputs are whole 64-byte records)", opts.MB))
	}
	done, err := experiments.RunWorkload(cfg, strings.ToLower(*kernel), arch, *adjusted, opts.Cores, size, *seed)
	if err != nil {
		return fail(err)
	}
	res, rec := done.Result, &done.Run
	if err := opts.WriteArtifacts(cfg.Telemetry, rec.Profile, "profile"); err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "%s / %s: %d cores, %.2f MB input\n", arch, rec.Kernel, rec.Cores, float64(res.InputBytes)/(1<<20))
	fmt.Fprintf(stdout, "  duration    %v\n", res.Duration)
	fmt.Fprintf(stdout, "  throughput  %.3f GB/s\n", res.Throughput()/1e9)
	var total, instr int64
	for _, ps := range rec.ClassPs {
		total += ps
	}
	for _, st := range res.CoreStats {
		instr += st.Instructions
	}
	if total > 0 {
		// Short column names, indexed like cpu.ClassNames.
		short := [cpu.NumClasses]string{"busy", "mem", "data-wait", "out-full", "exec"}
		parts := make([]string, len(short))
		for i, name := range short {
			parts[i] = fmt.Sprintf("%s %.0f%%", name, 100*float64(rec.ClassPs[i])/float64(total))
		}
		fmt.Fprintf(stdout, "  cycles: %s\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(stdout, "  instructions %d (%.2f per input byte)\n", instr, float64(instr)/float64(res.InputBytes))
	fmt.Fprintf(stdout, "  DRAM traffic %.2f MB (util %.0f%%)\n",
		float64(done.SSD.DRAM.TotalBytes())/(1<<20), 100*done.SSD.DRAM.Utilization(res.Duration))

	if opts.Report {
		fmt.Fprint(stdout, analyze.FormatReport(analyze.Attribute(*rec)))
	}
	if guest := rec.Profile; guest != nil {
		fmt.Fprint(stdout, guest.FormatHotBlocks(opts.KProf))
		if opts.KProfDir != "" {
			if err := os.WriteFile(filepath.Join(opts.KProfDir, "profile.folded"), []byte(guest.Folded()), 0o644); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "  profile     %s/profile.{json,folded,pb.gz}\n", opts.KProfDir)
		}
	}
	if sum := rec.Requests; sum != nil {
		if err := sum.WriteText(stdout); err != nil {
			return fail(err)
		}
		if *reqJSON != "" {
			f, err := os.Create(*reqJSON)
			if err != nil {
				return fail(err)
			}
			if err := reqtrace.WriteSummariesJSON(f, []*reqtrace.Summary{sum}); err != nil {
				f.Close()
				return fail(err)
			}
			if err := f.Close(); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "  requests    %s (%d traced)\n", *reqJSON, sum.Count)
		}
	}
	if opts.Trace != "" {
		fmt.Fprintf(stdout, "  trace       %s (%d events)\n", opts.Trace, cfg.Telemetry.EventCount())
	}
	if opts.Metrics != "" {
		fmt.Fprintf(stdout, "  metrics     %s\n", opts.Metrics)
	}
	if *tlPth != "" {
		if err := rec.Timeline.WriteFile(*tlPth); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "  timeline    %s (%d samples)\n", *tlPth, len(rec.Timeline.TimesPs))
	}
	if *diffPth != "" {
		other, err := diff.LoadFile(*diffPth)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, diff.Compare(other, *rec).Format())
	}
	return 0
}
