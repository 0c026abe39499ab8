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
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"assasin/internal/buildinfo"
	"assasin/internal/cpu"
	"assasin/internal/experiments"
	"assasin/internal/obs"
	"assasin/internal/profiling"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/diff"
	"assasin/internal/telemetry/kprof"
	"assasin/internal/telemetry/reqtrace"
	"assasin/internal/telemetry/timeline"
)

// stopProfiles finalizes -cpuprofile/-memprofile output; every exit path
// must call it because os.Exit skips defers.
var stopProfiles = func() {}

func main() {
	var (
		archName = flag.String("arch", "AssasinSb", ssd.ArchNames())
		kernel   = flag.String("kernel", "stat", "workload: "+strings.Join(experiments.WorkloadNames(), ", "))
		mb       = flag.Float64("mb", 1, "input megabytes per stream")
		cores    = flag.Int("cores", 8, "compute engines")
		adjusted = flag.Bool("adjusted", false, "apply Fig 20 timing adjustments")
		seed     = flag.Int64("seed", 1, "input data seed")
		tracePth = flag.String("trace", "", "write a Chrome trace_event JSON file (open in Perfetto)")
		metrPth  = flag.String("metrics", "", "write a flat telemetry metrics JSON file")
		tlPth    = flag.String("timeline", "", "write the run's sampled timeline JSON file")
		tlIvalUs = flag.Float64("timeline-interval-us", 10, "timeline sampling interval in simulated microseconds")
		diffPth  = flag.String("diff", "", "compare this run against a baseline JSON file (metrics, timeline, report, or BENCH envelope)")
		report   = flag.Bool("report", false, "print the run's bottleneck-attribution report")
		requests = flag.Int("requests", 0, "trace per-request critical paths and print the K slowest requests (0 = off)")
		kprofN   = flag.Int("kprof", 0, "profile guest kernels and print the N hottest basic blocks (0 = off)")
		kprofDir = flag.String("kprof-dir", "", "write profile.json, profile.folded and profile.pb.gz here (implies -kprof 10 when unset)")
		reqJSON  = flag.String("requests-json", "", "write the request-trace summary as JSON (implies -requests 8 when unset)")
		logLevel = flag.String("log-level", "warn", "log verbosity: debug, info, warn, error")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocs heap profile to this file on exit")
		version  = flag.Bool("version", false, "print version and build information, then exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get().Line("assasin-sim"))
		return
	}
	if *reqJSON != "" && *requests <= 0 {
		*requests = 8
	}
	if *kprofDir != "" && *kprofN <= 0 {
		*kprofN = 10
	}

	if err := experiments.ValidateOverrides(*cores, 0, 0, *mb); err != nil {
		fail(err)
	}
	size := int(*mb * (1 << 20))
	size -= size % 64
	if size == 0 {
		fail(fmt.Errorf("-mb %g rounds to 0 bytes (inputs are whole 64-byte records)", *mb))
	}
	if ps := *tlIvalUs * 1e6; !(ps >= 1 && ps < math.MaxInt64) {
		fail(fmt.Errorf("-timeline-interval-us must be finite and at least 1 ps (1e-06), got %g", *tlIvalUs))
	}
	arch, err := ssd.ParseArch(*archName)
	if err != nil {
		fail(err)
	}
	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}
	stopProfiles = stop
	defer stop()

	log, err := obs.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		fail(err)
	}
	cfg := experiments.Config{Requests: *requests, KProf: *kprofN > 0, Log: log}
	if *tracePth != "" || *metrPth != "" || *report || *tlPth != "" || *diffPth != "" {
		cfg.Telemetry = telemetry.NewSink()
		cfg.Telemetry.Log = log
		if *tracePth == "" {
			cfg.Telemetry.MaxEvents = -1 // metrics only: see experiments.Observer
		}
	}
	if *tlPth != "" || *diffPth != "" {
		cfg.Timeline = &timeline.Config{IntervalPs: int64(*tlIvalUs * 1e6)}
	}
	done, err := experiments.RunWorkload(cfg, strings.ToLower(*kernel), arch, *adjusted, *cores, size, *seed)
	if err != nil {
		fail(err)
	}
	res, run := done.Result, &done.Run

	fmt.Printf("%s / %s: %d cores, %.2f MB input\n", arch, run.Kernel, run.Cores, float64(res.InputBytes)/(1<<20))
	fmt.Printf("  duration    %v\n", res.Duration)
	fmt.Printf("  throughput  %.3f GB/s\n", res.Throughput()/1e9)
	var total, instr int64
	for _, ps := range run.ClassPs {
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
			parts[i] = fmt.Sprintf("%s %.0f%%", name, 100*float64(run.ClassPs[i])/float64(total))
		}
		fmt.Printf("  cycles: %s\n", strings.Join(parts, ", "))
	}
	fmt.Printf("  instructions %d (%.2f per input byte)\n", instr, float64(instr)/float64(res.InputBytes))
	fmt.Printf("  DRAM traffic %.2f MB (util %.0f%%)\n",
		float64(done.SSD.DRAM.TotalBytes())/(1<<20), 100*done.SSD.DRAM.Utilization(res.Duration))

	var rep *analyze.RunReport
	if *report || *diffPth != "" {
		rep = analyze.Attribute(*run)
	}
	if *report {
		fmt.Print(analyze.FormatReport(rep))
	}
	if guest := run.Profile; guest != nil {
		fmt.Print(guest.FormatHotBlocks(*kprofN))
		if *kprofDir != "" {
			if err := writeKProf(*kprofDir, guest); err != nil {
				fail(err)
			}
			fmt.Printf("  profile     %s/profile.{json,folded,pb.gz}\n", *kprofDir)
		}
	}
	if sum := run.Requests; sum != nil {
		if err := sum.WriteText(os.Stdout); err != nil {
			fail(err)
		}
		if *reqJSON != "" {
			f, err := os.Create(*reqJSON)
			if err != nil {
				fail(err)
			}
			if err := reqtrace.WriteSummariesJSON(f, []*reqtrace.Summary{sum}); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("  requests    %s (%d traced)\n", *reqJSON, sum.Count)
		}
	}
	if tel := cfg.Telemetry; tel != nil {
		if *tracePth != "" {
			if err := tel.WriteChromeTraceFile(*tracePth); err != nil {
				fail(err)
			}
			fmt.Printf("  trace       %s (%d events)\n", *tracePth, tel.EventCount())
		}
		if *metrPth != "" {
			if err := tel.WriteMetricsFile(*metrPth); err != nil {
				fail(err)
			}
			fmt.Printf("  metrics     %s\n", *metrPth)
		}
		if *tlPth != "" {
			if err := run.Timeline.WriteFile(*tlPth); err != nil {
				fail(err)
			}
			fmt.Printf("  timeline    %s (%d samples)\n", *tlPth, len(run.Timeline.TimesPs))
		}
	}
	if *diffPth != "" {
		other, err := diff.LoadFile(*diffPth)
		if err != nil {
			fail(err)
		}
		cur := diff.RunData{Label: run.Label, Report: rep, Timeline: run.Timeline, Profile: run.Profile, Metrics: run.Metrics}
		fmt.Print(diff.Compare(other, cur).Format())
	}
}

// writeKProf drops the three profile exports into dir: JSON (diffable with
// assasin-diff), folded flamegraph text, and gzipped pprof profile.proto.
func writeKProf(dir string, p *kprof.Profile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "profile.json"), append(js, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "profile.folded"), []byte(p.Folded()), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "profile.pb.gz"))
	if err != nil {
		return err
	}
	if err := p.WritePprof(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "assasin-sim: %v\n", err)
	stopProfiles()
	os.Exit(1)
}
