package experiments

import (
	"fmt"
	"strings"

	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/memhier"
	"assasin/internal/nvme"
	"assasin/internal/runpool"
	"assasin/internal/sim"
	"assasin/internal/ssd"
)

// Ablation experiments: design-choice sensitivity studies beyond the
// paper's figures (supplemental; indexed in DESIGN.md). Each isolates one
// parameter of the ASSASIN design and shows why the paper's choice sits
// where it does.

// AblationWindowRow is one stream-window depth sample.
type AblationWindowRow struct {
	WindowPages int
	Throughput  float64
}

// AblationWindow sweeps the per-slot stream window depth P for the scan
// workload: too shallow and cores stall on array-read jitter; beyond a few
// pages the returns vanish — the capacity argument behind the paper's
// small stream buffers.
func AblationWindow(cfg Config) ([]AblationWindowRow, error) {
	w := mustWorkload("scan")
	in := w.inputs(int(cfg.ScanMB*(1<<20)), 31)
	depths := []int{1, 2, 4, 8, 16}
	return runpool.Map(cfg.workers(), len(depths), func(i int) (AblationWindowRow, error) {
		p := depths[i]
		o := w.opts(ssd.AssasinSb, cfg.Cores, in)
		o.windowPages = p
		r, err := runStandalone(cfg, o)
		if err != nil {
			return AblationWindowRow{}, fmt.Errorf("window %d: %w", p, err)
		}
		return AblationWindowRow{WindowPages: p, Throughput: r.throughput()}, nil
	})
}

// FormatAblationWindow renders the sweep.
func FormatAblationWindow(rows []AblationWindowRow) string {
	var b strings.Builder
	b.WriteString("Ablation A1 — stream window depth P (scan, GB/s)\n")
	fmt.Fprintf(&b, "%-8s%14s\n", "P", "Throughput")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d%14s\n", r.WindowPages, gbps(r.Throughput))
	}
	return b.String()
}

// AblationDRAMRow is one DRAM-bandwidth sample for Baseline vs AssasinSb.
type AblationDRAMRow struct {
	BandwidthGBs float64
	Baseline     float64
	AssasinSb    float64
}

// AblationDRAM sweeps SSD DRAM bandwidth for the Stat kernel. Baseline
// throughput tracks DRAM bandwidth (the memory wall); AssasinSb is flat —
// the paper's "little to none memory bandwidth requirement".
func AblationDRAM(cfg Config) ([]AblationDRAMRow, error) {
	data := randData(int(cfg.KernelMB*(1<<20)), 32)
	bws := []float64{2e9, 4e9, 8e9, 16e9}
	archs := []ssd.Arch{ssd.Baseline, ssd.AssasinSb}
	// One job per (bandwidth, configuration).
	tputs, err := runpool.Map(cfg.workers(), len(bws)*len(archs), func(j int) (float64, error) {
		bw, arch := bws[j/len(archs)], archs[j%len(archs)]
		k := kernels.Stat{}
		obs := Observe(cfg, fmt.Sprintf("dram%.0fGBps/%v", bw/1e9, arch), k.Name())
		s := ssd.New(obs.Options(ssd.Options{
			Arch:  arch,
			Cores: cfg.Cores,
			DRAM:  memhier.DRAMConfig{BandwidthBytesPerSec: bw, Latency: 60 * sim.Nanosecond},
		}))
		lpas, err := s.InstallBytes(data)
		if err != nil {
			return 0, err
		}
		res, err := s.RunKernel(ssd.KernelRun{
			Kernel:     k,
			Inputs:     [][]int{lpas},
			InputBytes: []int64{int64(len(data))},
			RecordSize: 4,
			Cores:      cfg.Cores,
			OutKind:    firmware.OutDiscard,
		})
		if err != nil {
			return 0, fmt.Errorf("dram %g on %v: %w", bw, arch, err)
		}
		obs.Finish(s, res)
		return res.Throughput(), nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]AblationDRAMRow, len(bws))
	for i, bw := range bws {
		rows[i] = AblationDRAMRow{
			BandwidthGBs: bw / 1e9,
			Baseline:     tputs[i*len(archs)],
			AssasinSb:    tputs[i*len(archs)+1],
		}
	}
	return rows, nil
}

// FormatAblationDRAM renders the sweep.
func FormatAblationDRAM(rows []AblationDRAMRow) string {
	var b strings.Builder
	b.WriteString("Ablation A2 — SSD DRAM bandwidth sensitivity (Stat, GB/s)\n")
	fmt.Fprintf(&b, "%-12s%12s%12s\n", "DRAM GB/s", "Baseline", "AssasinSb")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12.0f%12s%12s\n", r.BandwidthGBs, gbps(r.Baseline), gbps(r.AssasinSb))
	}
	return b.String()
}

// MixedIOResult reports the Section V-A generality check: conventional
// reads serviced during an offload.
type MixedIOResult struct {
	OffloadThroughput float64
	IdleReadMean      sim.Time
	BusyReadMean      sim.Time
}

// MixedIO runs conventional 4-page reads against an idle drive and against
// a drive running a full-rate scan offload, demonstrating that the ASSASIN
// architecture interleaves normal I/O with computational storage (no
// custom FTL, shared flash array).
func MixedIO(cfg Config) (*MixedIOResult, error) {
	run := func(withOffload bool) (float64, sim.Time, error) {
		label := "mixed-io/idle"
		if withOffload {
			label = "mixed-io/offload"
		}
		k := kernels.Scan{}
		obs := Observe(cfg, label, k.Name())
		s := ssd.New(obs.Options(ssd.Options{Arch: ssd.AssasinSb, Cores: cfg.Cores}))
		data := randData(int(cfg.ScanMB*(1<<20)), 33)
		lpas, err := s.InstallBytes(data)
		if err != nil {
			return 0, 0, err
		}
		ioData := randData(64*s.Opt.Flash.PageSize, 34)
		ioLpas, err := s.InstallBytes(ioData)
		if err != nil {
			return 0, 0, err
		}
		var tasks []ssd.TaskSpec
		if withOffload {
			tasks, err = s.BuildTasks(ssd.KernelRun{
				Kernel:     k,
				Inputs:     [][]int{lpas},
				InputBytes: []int64{int64(len(data))},
				RecordSize: 16,
				Cores:      cfg.Cores,
				OutKind:    firmware.OutDiscard,
			})
			if err != nil {
				return 0, 0, err
			}
		}
		ctl := nvme.New(s, nvme.DefaultConfig())
		var reqs []nvme.IORequest
		for i := 0; i < 32; i++ {
			reqs = append(reqs, nvme.IORequest{
				Op: nvme.OpRead, LPA: ioLpas[(i*4)%60], Pages: 4,
				SubmitAt: 50*sim.Microsecond + sim.Time(i)*15*sim.Microsecond,
			})
		}
		res, comps, err := ctl.RunMixed(tasks, reqs, 0)
		if err != nil {
			return 0, 0, err
		}
		tput := 0.0
		if res != nil {
			tput = res.Throughput()
		}
		obs.Finish(s, res)
		return tput, nvme.Latencies(comps).Mean, nil
	}
	// Two independent drives: job 0 idle, job 1 running the offload.
	type mixedRun struct {
		tput float64
		read sim.Time
	}
	outs, err := runpool.Map(cfg.workers(), 2, func(i int) (mixedRun, error) {
		tput, read, err := run(i == 1)
		return mixedRun{tput: tput, read: read}, err
	})
	if err != nil {
		return nil, err
	}
	return &MixedIOResult{
		OffloadThroughput: outs[1].tput,
		IdleReadMean:      outs[0].read,
		BusyReadMean:      outs[1].read,
	}, nil
}

// FormatMixedIO renders the generality check.
func FormatMixedIO(r *MixedIOResult) string {
	return fmt.Sprintf(`Ablation A3 — conventional reads interleaved with an offload (Section V-A generality)
  offload throughput while serving reads: %s GB/s
  4-page read latency, idle drive:        %v
  4-page read latency, offload running:   %v (%.2fx)
`, gbps(r.OffloadThroughput), r.IdleReadMean, r.BusyReadMean,
		float64(r.BusyReadMean)/float64(r.IdleReadMean))
}
