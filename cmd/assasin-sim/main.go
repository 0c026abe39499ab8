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
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"assasin/internal/buildinfo"
	"assasin/internal/cpu"
	"assasin/internal/experiments"
	"assasin/internal/firmware"
	"assasin/internal/kernels"
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
		kernel   = flag.String("kernel", "stat", "stat, scan, raid4, raid6, aes, filter, select, psf, dedup, mlp, lz")
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

	if *mb < 0 {
		fail(fmt.Errorf("-mb must be >= 0, got %g", *mb))
	}
	if *cores < 0 {
		fail(fmt.Errorf("-cores must be >= 0, got %d", *cores))
	}
	arch, err := ssd.ParseArch(*archName)
	if err != nil {
		fail(err)
	}
	k, rec, nIn, out, err := pickKernel(*kernel)
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
	if *tlIvalUs <= 0 {
		fail(fmt.Errorf("-timeline-interval-us must be > 0, got %g", *tlIvalUs))
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
	label := fmt.Sprintf("%s/%v", k.Name(), arch)
	run := experiments.Observe(cfg, experiments.RunRecord{Label: label, Kernel: k.Name(), Arch: arch, Cores: *cores})
	s := ssd.New(run.Options(ssd.Options{Arch: arch, Cores: *cores, TimingAdjusted: *adjusted}))
	size := int(*mb * (1 << 20))
	size -= size % 64
	var lpaLists [][]int
	var lengths []int64
	for i := 0; i < nIn; i++ {
		data := makeInput(*kernel, size, *seed+int64(i))
		lpas, err := s.InstallBytes(data)
		if err != nil {
			fail(err)
		}
		lpaLists = append(lpaLists, lpas)
		lengths = append(lengths, int64(len(data)))
	}
	res, err := s.RunKernel(ssd.KernelRun{
		Kernel:     k,
		Inputs:     lpaLists,
		InputBytes: lengths,
		RecordSize: rec,
		Cores:      *cores,
		OutKind:    out,
	})
	if err != nil {
		fail(err)
	}
	done := run.Finish(s, res)
	attr := done.AttributionRun()

	fmt.Printf("%s / %s: %d cores, %.2f MB input\n", arch, k.Name(), *cores, float64(res.InputBytes)/(1<<20))
	fmt.Printf("  duration    %v\n", res.Duration)
	fmt.Printf("  throughput  %.3f GB/s\n", res.Throughput()/1e9)
	var total, instr int64
	for _, ps := range attr.ClassPs {
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
			parts[i] = fmt.Sprintf("%s %.0f%%", name, 100*float64(attr.ClassPs[i])/float64(total))
		}
		fmt.Printf("  cycles: %s\n", strings.Join(parts, ", "))
	}
	fmt.Printf("  instructions %d (%.2f per input byte)\n", instr, float64(instr)/float64(res.InputBytes))
	fmt.Printf("  DRAM traffic %.2f MB (util %.0f%%)\n",
		float64(s.DRAM.TotalBytes())/(1<<20), 100*s.DRAM.Utilization(res.Duration))

	var rep *analyze.RunReport
	if *report || *diffPth != "" {
		rep = analyze.Attribute(attr)
		analyze.AttachPhases(rep, done.Timeline)
	}
	if *report {
		fmt.Print(analyze.FormatReport(rep))
	}
	if guest := done.Profile; guest != nil {
		fmt.Print(guest.FormatHotBlocks(*kprofN))
		if *kprofDir != "" {
			if err := writeKProf(*kprofDir, guest); err != nil {
				fail(err)
			}
			fmt.Printf("  profile     %s/profile.{json,folded,pb.gz}\n", *kprofDir)
		}
	}
	if sum := done.Requests; sum != nil {
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
			if err := done.Timeline.WriteFile(*tlPth); err != nil {
				fail(err)
			}
			fmt.Printf("  timeline    %s (%d samples)\n", *tlPth, len(done.Timeline.TimesPs))
		}
	}
	if *diffPth != "" {
		other, err := diff.LoadFile(*diffPth)
		if err != nil {
			fail(err)
		}
		cur := diff.RunData{Label: label, Report: rep, Timeline: done.Timeline, Profile: done.Profile, Metrics: done.Metrics}
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

func pickKernel(name string) (kernels.Kernel, int, int, firmware.OutKind, error) {
	switch strings.ToLower(name) {
	case "stat":
		return kernels.Stat{}, 4, 1, firmware.OutDiscard, nil
	case "scan":
		return kernels.Scan{}, 16, 1, firmware.OutDiscard, nil
	case "raid4":
		return kernels.RAID4{K: 4}, 4, 4, firmware.OutToFlash, nil
	case "raid6":
		return kernels.RAID6{K: 4}, 4, 4, firmware.OutToFlash, nil
	case "aes":
		return kernels.AES{}, 16, 1, firmware.OutToFlash, nil
	case "filter":
		return kernels.Filter{
			TupleSize: 32,
			Preds: []kernels.FieldPred{
				{Offset: 16, Lo: 19940101, Hi: 19941231},
				{Offset: 0, Lo: 0, Hi: 23},
			},
		}, 32, 1, firmware.OutToHost, nil
	case "select":
		return kernels.Select{TupleSize: 32, FieldOffsets: []int{0, 4, 16}}, 32, 1, firmware.OutToHost, nil
	case "psf":
		return kernels.PSF{
			NumFields: 16,
			Project:   []int{4, 5, 6, 10},
			Preds:     []kernels.PSFPred{{Col: 10, Lo: 19940101, Hi: 19941231}},
		}, 1, 1, firmware.OutToHost, nil
	case "dedup":
		return kernels.Dedup{}, 512, 1, firmware.OutToHost, nil
	case "mlp":
		k := kernels.MLP{}
		return k, k.RecordSize(), 1, firmware.OutToHost, nil
	case "lz":
		return kernels.LZDecompress{}, 1 << 30, 1, firmware.OutToHost, nil
	default:
		return nil, 0, 0, 0, fmt.Errorf("unknown kernel %q", name)
	}
}

// makeInput builds kernel-appropriate data: CSV rows for psf, binary tuples
// with plausible fields for filter/select, random bytes otherwise.
func makeInput(kernel string, size int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	switch strings.ToLower(kernel) {
	case "psf":
		var b strings.Builder
		for b.Len() < size {
			for f := 0; f < 16; f++ {
				if f > 0 {
					b.WriteByte('|')
				}
				if f == 10 {
					fmt.Fprintf(&b, "%d", 19920101+rng.Intn(70000))
				} else {
					fmt.Fprintf(&b, "%d", rng.Intn(100000))
				}
			}
			b.WriteByte('\n')
		}
		return []byte(b.String())
	case "filter", "select":
		data := make([]byte, size-size%32)
		for i := 0; i+32 <= len(data); i += 32 {
			put32 := func(off int, v uint32) {
				data[i+off] = byte(v)
				data[i+off+1] = byte(v >> 8)
				data[i+off+2] = byte(v >> 16)
				data[i+off+3] = byte(v >> 24)
			}
			put32(0, uint32(1+rng.Intn(50)))
			put32(4, uint32(90000+rng.Intn(100000)))
			put32(8, uint32(rng.Intn(11)*100))
			put32(12, uint32(rng.Intn(9)*100))
			put32(16, uint32(19920101+rng.Intn(70000)))
		}
		return data
	case "lz":
		return kernels.LZDecompress{}.Compress(kernels.CompressibleData(size, seed))
	case "dedup":
		chunk := make([]byte, 512)
		out := make([]byte, 0, size)
		for len(out)+512 <= size {
			if rng.Intn(3) > 0 {
				rng.Read(chunk)
			}
			out = append(out, chunk...)
		}
		return out
	default:
		data := make([]byte, size)
		rng.Read(data)
		return data
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "assasin-sim: %v\n", err)
	stopProfiles()
	os.Exit(1)
}
