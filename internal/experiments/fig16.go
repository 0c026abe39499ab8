package experiments

import (
	"fmt"
	"strings"

	"assasin/internal/sim"

	"assasin/internal/firmware"
	"assasin/internal/ftl"
	"assasin/internal/kernels"
	"assasin/internal/runpool"
	"assasin/internal/ssd"
)

// Fig16Point is one core-count sample of the scalability study.
type Fig16Point struct {
	Cores int
	// Throughput is aggregate scan throughput in B/s (Fig. 16).
	Throughput float64
	// Utilization is mean core busy fraction normalized by the ideal
	// (nominal core rate bounded by a fair flash share) — Fig. 17.
	Utilization float64
	// ChannelBytes is per-channel delivered bytes (Fig. 18, at this point's
	// core count).
	ChannelBytes []int64
	// ChannelThroughput is per-channel B/s over the run (Fig. 18).
	ChannelThroughput []float64
}

// scanCoreRate is the nominal per-core scan rate: the unrolled byte-scan
// retires u loads + 1 jump (2 cycles) per u bytes at 1 GHz.
func scanCoreRate(unroll int) float64 {
	return float64(unroll) / float64(unroll+2) * 1e9
}

// Fig16 runs the byte-scan scalability study over core counts (the paper's
// 1..16 sweep): linear compute scaling until the 8 GB/s flash array bound,
// with high core utilization and balanced channels (Figs. 16-18).
func Fig16(cfg Config) ([]Fig16Point, error) {
	w := mustWorkload("scan")
	coreCounts := []int{1, 2, 4, 8, 12, 16}
	// One job per core count; each builds its own input and SSD.
	return runpool.Map(cfg.workers(), len(coreCounts), func(i int) (Fig16Point, error) {
		cores := coreCounts[i]
		// Keep at least ~1 MB per core so the measurement is steady-state
		// dominated rather than fill-latency dominated.
		sizeMB := cfg.ScanMB
		if min := float64(cores); sizeMB < min {
			sizeMB = min
		}
		o := w.opts(ssd.AssasinSb, cores, w.inputs(int(sizeMB*(1<<20)), 77))
		// The single scan stream gets the whole 64 KiB ISB (the firmware
		// allocates slot capacity to active streams).
		o.windowPages = 16
		r, err := runStandalone(cfg, o)
		if err != nil {
			return Fig16Point{}, fmt.Errorf("scan at %d cores: %w", cores, err)
		}
		tput := r.throughput()

		// Ideal per-core rate: nominal compute rate bounded by the fair
		// flash share (the paper's "derived by considering nominal
		// bandwidth relationships between cores and channels").
		flashBW := r.SSD.Array.TotalBandwidth()
		ideal := scanCoreRate(16) // the scan row's default unroll
		fair := flashBW / float64(cores)
		if fair < ideal {
			ideal = fair
		}
		// Exclude the initial fill latency (sense + first transfers) from
		// the utilization window: the paper measures steady-state scans.
		startup := 30 * sim.Microsecond
		steady := r.Result.Duration - startup
		if steady <= 0 {
			steady = r.Result.Duration
		}
		util := float64(len(o.inputs[0])) / steady.Seconds() / float64(cores) / ideal

		p := Fig16Point{Cores: cores, Throughput: tput, Utilization: util}
		for c := 0; c < r.SSD.Flash.Channels; c++ {
			bytesC := r.SSD.Array.ChannelBytes(c)
			p.ChannelBytes = append(p.ChannelBytes, bytesC)
			p.ChannelThroughput = append(p.ChannelThroughput, float64(bytesC)/r.Result.Duration.Seconds())
		}
		return p, nil
	})
}

// FormatFig16 renders throughput scaling.
func FormatFig16(points []Fig16Point) string {
	var b strings.Builder
	b.WriteString("Fig 16 — compute throughput vs ASSASIN core count (GB/s)\n")
	fmt.Fprintf(&b, "%-8s%14s%14s\n", "Cores", "Throughput", "Per-core")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8d%14s%14s\n", p.Cores, gbps(p.Throughput), gbps(p.Throughput/float64(p.Cores)))
	}
	return b.String()
}

// FormatFig17 renders normalized utilization.
func FormatFig17(points []Fig16Point) string {
	var b strings.Builder
	b.WriteString("Fig 17 — core utilization normalized to ideal\n")
	fmt.Fprintf(&b, "%-8s%14s\n", "Cores", "Utilization")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8d%13.1f%%\n", p.Cores, 100*p.Utilization)
	}
	return b.String()
}

// FormatFig18 renders the per-channel balance of the 8-core point.
func FormatFig18(points []Fig16Point) string {
	var pick *Fig16Point
	for i := range points {
		if points[i].Cores == 8 {
			pick = &points[i]
		}
	}
	if pick == nil && len(points) > 0 {
		pick = &points[len(points)-1]
	}
	var b strings.Builder
	b.WriteString("Fig 18 — per-flash-channel throughput (8 cores, GB/s)\n")
	if pick == nil {
		return b.String()
	}
	var min, max float64
	for c, t := range pick.ChannelThroughput {
		fmt.Fprintf(&b, "  channel %d: %s\n", c, gbps(t))
		if c == 0 || t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	if max > 0 {
		fmt.Fprintf(&b, "  balance (min/max): %.3f\n", min/max)
	}
	return b.String()
}

// Fig19Point is one skew sample comparing the crossbar architecture with
// the channel-local alternative (Fig. 7).
type Fig19Point struct {
	Skew         float64 // configured layout skew
	MeasuredSkew float64 // the metric over the installed pages
	Crossbar     float64 // B/s
	ChannelLocal float64 // B/s
}

// Fig19 measures sensitivity to flash layout skew: ASSASIN's crossbar keeps
// pooled cores fed from however few channels hold the data, while
// channel-local compute degrades toward a single channel's core.
func Fig19(cfg Config) ([]Fig19Point, error) {
	size := int(cfg.ScanMB * (1 << 20) / 2)
	data := randData(size, 99)
	// A PSF-like moderate-intensity kernel (~2 cycles/byte): compute, not
	// the channel bus, is the per-core limit, so core pooling shows through.
	scan := kernels.Scan{Unroll: 2}
	// The channel-local alternative needs a core per channel.
	cores := cfg.Cores
	if min := ssd.DefaultFlashConfig().Channels; cores < min {
		cores = min
	}
	skews := []float64{0, 0.25, 0.5, 0.75, 1.0}
	// One job per skew point; the crossbar/channel-local pair stays inside
	// the job (both runs share the measured-skew computation).
	return runpool.Map(cfg.workers(), len(skews), func(i int) (Fig19Point, error) {
		skew := skews[i]
		var measured float64
		run := func(channelLocal bool) (float64, error) {
			mode := "xbar"
			if channelLocal {
				mode = "chlocal"
			}
			obs := Observe(cfg, fmt.Sprintf("skew%.2f/%s", skew, mode), scan.Name())
			s := ssd.New(obs.Options(ssd.Options{
				Arch:         ssd.AssasinSb,
				Cores:        cores,
				ChannelLocal: channelLocal,
				Layout:       ftl.SkewedPolicy{Skew: skew},
			}))
			lpas, err := s.InstallBytes(data)
			if err != nil {
				return 0, err
			}
			measured = s.FTL.Skew(lpas)
			ps := s.Flash.PageSize
			res, err := s.RunKernel(ssd.KernelRun{
				Kernel:     scan,
				Inputs:     [][]int{lpas},
				InputBytes: []int64{int64(len(data))},
				RecordSize: ps,
				Cores:      cores,
				OutKind:    firmware.OutDiscard,
			})
			if err != nil {
				return 0, err
			}
			obs.Finish(s, res)
			return res.Throughput(), nil
		}
		xbar, err := run(false)
		if err != nil {
			return Fig19Point{}, fmt.Errorf("skew %.2f crossbar: %w", skew, err)
		}
		local, err := run(true)
		if err != nil {
			return Fig19Point{}, fmt.Errorf("skew %.2f channel-local: %w", skew, err)
		}
		return Fig19Point{Skew: skew, MeasuredSkew: measured, Crossbar: xbar, ChannelLocal: local}, nil
	})
}

// FormatFig19 renders the sensitivity study.
func FormatFig19(points []Fig19Point) string {
	var b strings.Builder
	b.WriteString("Fig 19 — layout-skew sensitivity (GB/s)\n")
	fmt.Fprintf(&b, "%-8s%10s%12s%15s%10s\n", "Skew", "Measured", "Crossbar", "ChannelLocal", "Ratio")
	for _, p := range points {
		ratio := 0.0
		if p.ChannelLocal > 0 {
			ratio = p.Crossbar / p.ChannelLocal
		}
		fmt.Fprintf(&b, "%-8.2f%10.2f%12s%15s%9.2fx\n", p.Skew, p.MeasuredSkew, gbps(p.Crossbar), gbps(p.ChannelLocal), ratio)
	}
	return b.String()
}
