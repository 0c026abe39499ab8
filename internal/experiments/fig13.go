package experiments

import (
	"fmt"
	"strings"

	"assasin/internal/cpu"
	"assasin/internal/ssd"
)

// fig13Workloads are the Fig. 13 workloads in the paper's order of
// increasing compute intensity: each one's figure label and row, and the
// share of KernelMB its streams divide (RAID6 gets half).
var fig13Workloads = []struct {
	label, name string
	div         int
}{
	{"Stat", "stat", 1},
	{"RAID4", "raid4", 1},
	{"RAID6", "raid6", 2},
	{"AES", "aes", 1},
}

// Fig13Row is one kernel's throughput across the Table IV configurations.
type Fig13Row struct {
	Kernel     string
	Throughput map[ssd.Arch]float64 // bytes/second of input stream
}

// Fig13 measures standalone function-offload throughput on all six
// configurations (pre-timing-adjustment clocks, as in the paper's Fig. 13).
func Fig13(cfg Config) ([]Fig13Row, error) {
	return standaloneSweep(cfg, false)
}

// Fig21 is Fig. 13 re-run with the circuit-derived clock adjustments of
// Fig. 20 (AssasinSb at 1.124 GHz, 2-cycle scratchpads).
func Fig21(cfg Config) ([]Fig13Row, error) {
	return standaloneSweep(cfg, true)
}

func standaloneSweep(cfg Config, adjusted bool) ([]Fig13Row, error) {
	archs := ssd.AllArchs()
	// One job per (kernel, configuration); each run builds its own SSD and
	// a kernel's inputs are shared read-only by every configuration's run.
	var jobs []runOpts
	for _, f := range fig13Workloads {
		w := mustWorkload(f.name)
		in := w.inputs(cfg.streamBytes(w, int(cfg.KernelMB*(1<<20))/f.div), 1000)
		for _, a := range archs {
			o := w.opts(a, cfg.Cores, in)
			o.adjusted = adjusted
			jobs = append(jobs, o)
		}
	}
	tputs, err := throughputs(cfg, jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig13Row, len(fig13Workloads))
	for i, f := range fig13Workloads {
		rows[i] = Fig13Row{Kernel: f.label, Throughput: map[ssd.Arch]float64{}}
		for a, arch := range archs {
			rows[i].Throughput[arch] = tputs[i*len(archs)+a]
		}
	}
	return rows, nil
}

// FormatFig13 renders the rows as the figure's bar-chart data.
func FormatFig13(title string, rows []Fig13Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — offloaded standalone function throughput (GB/s)\n", title)
	fmt.Fprintf(&b, "%-8s", "Kernel")
	for _, a := range ssd.AllArchs() {
		fmt.Fprintf(&b, "%12s", a)
	}
	fmt.Fprintf(&b, "%14s\n", "Sb/Baseline")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s", r.Kernel)
		for _, a := range ssd.AllArchs() {
			fmt.Fprintf(&b, "%12s", gbps(r.Throughput[a]))
		}
		sp := r.Throughput[ssd.AssasinSb] / r.Throughput[ssd.Baseline]
		fmt.Fprintf(&b, "%13.2fx\n", sp)
	}
	return b.String()
}

// Fig5Result is the Baseline cycle decomposition of the motivating Filter
// example (Section III-A).
type Fig5Result struct {
	Throughput    float64 // per-engine B/s
	BusyFrac      float64
	MemStallFrac  float64
	WaitStallFrac float64
	ExecStallFrac float64
}

// Fig5 reproduces the motivating example: the Filter function on one
// Baseline compute engine, with its cycle decomposition showing the memory
// wall (the paper reports 0.63 GB/s with memory stalls dominating).
func Fig5(cfg Config) (*Fig5Result, error) {
	w := mustWorkload("filter")
	o := w.opts(ssd.Baseline, 1, w.inputs(int(cfg.KernelMB*(1<<20)), w.seed))
	r, err := runChecked(cfg, o)
	if err != nil {
		return nil, err
	}
	st := r.Result.CoreStats[0]
	total := float64(st.TotalTime())
	ct := st.ClassTimes()
	frac := func(k cpu.StallKind) float64 { return float64(ct[1+k]) / total }
	return &Fig5Result{
		Throughput:    float64(len(o.inputs[0])) / r.Result.Duration.Seconds(),
		BusyFrac:      float64(ct[0]) / total,
		MemStallFrac:  frac(cpu.StallMem),
		WaitStallFrac: frac(cpu.StallStreamWait),
		ExecStallFrac: frac(cpu.StallExec),
	}, nil
}

// FormatFig5 renders the decomposition.
func FormatFig5(r *Fig5Result) string {
	return fmt.Sprintf(`Fig 5 — Filter on one Baseline engine (cycle decomposition)
  throughput        %s GB/s
  busy              %5.1f%%
  memory stalls     %5.1f%%
  data-wait stalls  %5.1f%%
  exec stalls       %5.1f%%
`, gbps(r.Throughput), 100*r.BusyFrac, 100*r.MemStallFrac, 100*r.WaitStallFrac, 100*r.ExecStallFrac)
}

// SpeedupSummary condenses a sweep into per-arch geomean speedup over
// Baseline — the input to the Fig. 22 efficiency computation.
func SpeedupSummary(rows []Fig13Row) map[ssd.Arch]float64 {
	out := map[ssd.Arch]float64{}
	for _, a := range ssd.AllArchs() {
		var ratios []float64
		for _, r := range rows {
			base := r.Throughput[ssd.Baseline]
			if base > 0 && r.Throughput[a] > 0 {
				ratios = append(ratios, r.Throughput[a]/base)
			}
		}
		out[a] = geoMean(ratios)
	}
	return out
}
