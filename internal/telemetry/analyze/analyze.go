// Package analyze is the bottleneck-attribution engine: it consumes the
// raw telemetry a run left behind — per-core cycle accounting, the
// counter/gauge registry, and the power-of-two histograms — and produces
// the paper's explanation of the result: where every simulated core cycle
// went (the "in-SSD memory wall" of Fig. 5: cache/DRAM waits dominating
// the baseline CSSD while ASSASIN's stream buffers keep cores fed), how
// busy each shared component was, and the latency-distribution percentiles.
//
// Reports render two ways, both deterministic: indented JSON (served by
// assasin-serve at /runs/<id>/report, printed by -report -json flows) and
// an aligned text table (assasin-bench -report / assasin-sim -report).
// A Run is also the one record of a finished run that every consumer
// shares: experiments deliver it, the observability server stores it, the
// commands render it, and the diff engine compares two of them (its
// LoadFile reads one back from any JSON file the commands write). The package depends only on
// internal/telemetry, its timeline, reqtrace and kprof artifacts, and the
// class table in internal/cpu, so every layer — cmds, the observability
// server, experiments — can consume it.
package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"assasin/internal/cpu"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/kprof"
	"assasin/internal/telemetry/reqtrace"
	"assasin/internal/telemetry/timeline"
)

// Run is the record of one finished run and the raw material of its
// attribution report. Cycle accounting is summed across the run's cores,
// in picoseconds of simulated time.
type Run struct {
	// Label identifies the run (e.g. "Stat/AssasinSb").
	Label string
	// Kernel and Arch split the label for grouping and sorting; Arch and
	// Cores describe the SSD the run used.
	Kernel string
	Arch   string
	Cores  int
	// DurationPs is the request completion time.
	DurationPs int64
	// InputBytes is the total stream bytes delivered to cores.
	InputBytes int64

	// ClassPs is the core time per class, summed over cores and indexed
	// like cpu.ClassNames.
	ClassPs [cpu.NumClasses]int64

	// Metrics, when non-nil, is the snapshot of the run's own sink taken
	// right after the run published its component stats: gauges carry this
	// run's component busy time, counters and histograms its counts and
	// distributions.
	Metrics *telemetry.MetricsSnapshot
	// Timeline is the run's sampled timeline, nil unless the run was
	// sampled; Attribute segments it into the report's phases.
	Timeline *timeline.Timeline
	// Requests is the run's request-trace summary (per-request critical
	// paths, top-K slowest), nil unless requests were traced.
	Requests *reqtrace.Summary
	// Profile is the run's guest-kernel profile (per-pc cycle/stall
	// attribution), nil unless guests were profiled. Its per-class totals
	// sum exactly to ClassPs.
	Profile *kprof.Profile
}

// ClassShare is one class's slice of a run's total core time.
type ClassShare struct {
	Class string  `json:"class"`
	Ps    int64   `json:"ps"`
	Frac  float64 `json:"frac"`
}

// ComponentUtil is one shared component's busy fraction of the run.
type ComponentUtil struct {
	Component string  `json:"component"`
	BusyPs    int64   `json:"busy_ps"`
	Util      float64 `json:"util"`
}

// HistQuantiles is the percentile view of one histogram.
type HistQuantiles struct {
	Metric string  `json:"metric"`
	Count  int64   `json:"count"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	Max    int64   `json:"max"`
}

// RunReport is the attribution of one run: the answer to "where did the
// cycles go, and which resource was the bottleneck".
type RunReport struct {
	ID         string `json:"id,omitempty"`
	Label      string `json:"label"`
	Kernel     string `json:"kernel"`
	Arch       string `json:"arch"`
	Cores      int    `json:"cores"`
	DurationPs int64  `json:"duration_ps"`
	InputBytes int64  `json:"input_bytes"`
	// ThroughputBps is input bytes per simulated second.
	ThroughputBps float64 `json:"throughput_bps"`
	// Classes holds every stall class, largest first, as fractions of the
	// run's total core time (busy + all stalls across all cores).
	Classes []ClassShare `json:"classes"`
	// LargestClass is Classes[0]; LargestStall excludes core-busy — the
	// headline "what held this architecture back".
	LargestClass string `json:"largest_class"`
	LargestStall string `json:"largest_stall"`
	// Components lists shared-resource busy fractions (flash channels,
	// crossbar ports) when the run carried a metrics snapshot.
	Components []ComponentUtil `json:"components,omitempty"`
	// Counters holds this run's counters when a snapshot was taken.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Histograms holds percentile summaries of every histogram the run
	// registered.
	Histograms []HistQuantiles `json:"histograms,omitempty"`
	// Phases is the dominant-class segmentation of the run, present when a
	// timeline was sampled.
	Phases []PhaseRow `json:"phases,omitempty"`
}

// PhaseRow is one dominant-class phase of a run, as rendered in reports.
type PhaseRow struct {
	Class   string `json:"class"`
	StartPs int64  `json:"start_ps"`
	EndPs   int64  `json:"end_ps"`
	// Frac is the phase's share of the run duration.
	Frac float64 `json:"frac"`
	// Classes is the per-class core time inside the phase, largest first
	// (cpu.ClassNames order breaks ties), with fractions of the phase's
	// core time.
	Classes []ClassShare `json:"classes,omitempty"`
}

// phasesFromTimeline converts a sampled timeline's segmentation into report
// rows. durationPs scales the per-phase Frac (0 disables it).
func phasesFromTimeline(tl *timeline.Timeline, durationPs int64) []PhaseRow {
	if tl == nil {
		return nil
	}
	rows := make([]PhaseRow, 0, len(tl.Phases))
	for _, p := range tl.Phases {
		row := PhaseRow{Class: p.Class, StartPs: p.StartPs, EndPs: p.EndPs}
		if durationPs > 0 {
			row.Frac = float64(p.DurationPs()) / float64(durationPs)
		}
		var total int64
		for _, ps := range p.ClassPs {
			total += ps
		}
		for _, class := range cpu.ClassNames {
			ps, ok := p.ClassPs[class]
			if !ok {
				continue
			}
			share := ClassShare{Class: class, Ps: ps}
			if total > 0 {
				share.Frac = float64(ps) / float64(total)
			}
			row.Classes = append(row.Classes, share)
		}
		sort.SliceStable(row.Classes, func(i, j int) bool {
			return row.Classes[i].Ps > row.Classes[j].Ps
		})
		rows = append(rows, row)
	}
	return rows
}

// ThroughputBps is the run's input bytes per simulated second, 0 for a run
// of no duration.
func (r Run) ThroughputBps() float64 {
	if r.DurationPs <= 0 {
		return 0
	}
	return float64(r.InputBytes) / (float64(r.DurationPs) * 1e-12)
}

// Attribute computes the report for one run.
func Attribute(r Run) *RunReport {
	rep := &RunReport{
		Label:      r.Label,
		Kernel:     r.Kernel,
		Arch:       r.Arch,
		Cores:      r.Cores,
		DurationPs: r.DurationPs,
		InputBytes: r.InputBytes,

		ThroughputBps: r.ThroughputBps(),
	}

	var total int64
	for _, ps := range r.ClassPs {
		total += ps
	}
	for i, class := range cpu.ClassNames {
		share := ClassShare{Class: class, Ps: r.ClassPs[i]}
		if total > 0 {
			share.Frac = float64(share.Ps) / float64(total)
		}
		rep.Classes = append(rep.Classes, share)
	}
	// Largest first; cpu.ClassNames position breaks ties so output is stable.
	sort.SliceStable(rep.Classes, func(i, j int) bool {
		return rep.Classes[i].Ps > rep.Classes[j].Ps
	})
	rep.LargestClass = rep.Classes[0].Class
	for _, s := range rep.Classes {
		if s.Class != cpu.ClassCoreBusy {
			rep.LargestStall = s.Class
			break
		}
	}

	if r.Metrics != nil {
		rep.Components = componentUtilization(*r.Metrics, r.DurationPs)
		rep.Counters = r.Metrics.Counters
		rep.Histograms = histQuantiles(*r.Metrics)
	}
	rep.Phases = phasesFromTimeline(r.Timeline, r.DurationPs)
	return rep
}

// componentUtilization reads the per-channel/per-port busy-time gauges the
// SSD publishes after a run and converts them into busy fractions of the
// run, appending "flash" / "xbar" aggregates (mean across lanes).
func componentUtilization(snap telemetry.MetricsSnapshot, durationPs int64) []ComponentUtil {
	var out []ComponentUtil
	var agg = map[string]*ComponentUtil{}
	var lanes = map[string]int64{}
	for key, g := range snap.Gauges {
		if !strings.HasSuffix(key, "_busy_ps") {
			continue
		}
		comp := strings.TrimSuffix(key, "_busy_ps") // e.g. "flash/ch0", "xbar/port3"
		u := ComponentUtil{Component: comp, BusyPs: g.Value}
		if durationPs > 0 {
			u.Util = float64(g.Value) / float64(durationPs)
		}
		out = append(out, u)
		family := comp[:strings.IndexByte(comp, '/')]
		if agg[family] == nil {
			agg[family] = &ComponentUtil{Component: family}
		}
		agg[family].BusyPs += g.Value
		lanes[family]++
	}
	for family, a := range agg {
		if durationPs > 0 && lanes[family] > 0 {
			a.Util = float64(a.BusyPs) / (float64(durationPs) * float64(lanes[family]))
		}
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Component < out[j].Component })
	return out
}

// histQuantiles lifts the snapshot's histogram percentiles into the
// report's sorted summary rows.
func histQuantiles(snap telemetry.MetricsSnapshot) []HistQuantiles {
	var out []HistQuantiles
	for key, h := range snap.Histograms {
		out = append(out, HistQuantiles{
			Metric: key, Count: h.Count, P50: h.P50, P95: h.P95, P99: h.P99, Max: h.Max,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Metric < out[j].Metric })
	return out
}

// SortReports orders reports for deterministic rendering: by kernel, then
// architecture, then label. Fan-outs complete runs in nondeterministic
// order when parallel; sorting makes -report output stable regardless.
func SortReports(reports []*RunReport) {
	sort.SliceStable(reports, func(i, j int) bool {
		a, b := reports[i], reports[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.Arch != b.Arch {
			return a.Arch < b.Arch
		}
		return a.Label < b.Label
	})
}

// ClassFrac returns the class's fraction of the run's total core time.
func (r *RunReport) ClassFrac(class string) float64 {
	for _, s := range r.Classes {
		if s.Class == class {
			return s.Frac
		}
	}
	return 0
}

// FormatReports renders the cross-run "where did the cycles go" table: one
// row per run, one column per stall class, plus the headline bottleneck
// and throughput. Rows compare architectures directly when the input spans
// one kernel across configs (the Fig. 13/14 reading of the table).
func FormatReports(reports []*RunReport) string {
	var b strings.Builder
	b.WriteString("Attribution — where did the cycles go (fractions of total core time)\n")
	fmt.Fprintf(&b, "%-26s%10s%12s%15s%10s%7s%20s%9s\n",
		"Run", "busy", "cache-dram", "stream-refill", "out-full", "exec", "largest-stall", "GB/s")
	// Column widths of the class fractions, in cpu.ClassNames order.
	widths := [cpu.NumClasses]int{9, 11, 14, 9, 6}
	for _, r := range reports {
		fmt.Fprintf(&b, "%-26s", r.Label)
		for i, class := range cpu.ClassNames {
			fmt.Fprintf(&b, "%*.1f%%", widths[i], 100*r.ClassFrac(class))
		}
		fmt.Fprintf(&b, "%20s%9.2f\n", r.LargestStall, r.ThroughputBps/1e9)
	}
	return b.String()
}

// FormatReport renders one run's full report: the class table, component
// utilization, and histogram percentiles when present.
func FormatReport(r *RunReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Attribution — %s (%d cores, %.3f ms, %.2f GB/s)\n",
		r.Label, r.Cores, float64(r.DurationPs)/1e9, r.ThroughputBps/1e9)
	fmt.Fprintf(&b, "  %-20s%12s%9s\n", "class", "time", "frac")
	for _, s := range r.Classes {
		fmt.Fprintf(&b, "  %-20s%12s%8.1f%%\n", s.Class, FormatPs(s.Ps), 100*s.Frac)
	}
	fmt.Fprintf(&b, "  largest class: %s; largest stall: %s\n", r.LargestClass, r.LargestStall)
	if len(r.Components) > 0 {
		fmt.Fprintf(&b, "  component utilization (busy fraction of run):\n")
		for _, c := range r.Components {
			fmt.Fprintf(&b, "    %-16s%7.1f%%\n", c.Component, 100*c.Util)
		}
	}
	if len(r.Phases) > 0 {
		fmt.Fprintf(&b, "  phases (dominant stall class over time):\n")
		fmt.Fprintf(&b, "    %-20s%14s%14s%8s\n", "class", "start", "end", "share")
		for _, p := range r.Phases {
			fmt.Fprintf(&b, "    %-20s%14s%14s%7.1f%%\n",
				p.Class, FormatPs(p.StartPs), FormatPs(p.EndPs), 100*p.Frac)
		}
	}
	if len(r.Histograms) > 0 {
		fmt.Fprintf(&b, "  histogram percentiles:\n")
		fmt.Fprintf(&b, "    %-28s%10s%12s%12s%12s\n", "metric", "count", "p50", "p95", "p99")
		for _, h := range r.Histograms {
			fmt.Fprintf(&b, "    %-28s%10d%12s%12s%12s\n",
				h.Metric, h.Count, fmtF(h.P50), fmtF(h.P95), fmtF(h.P99))
		}
	}
	return b.String()
}

// FormatPs renders picoseconds with a readable unit (ms, µs or ps),
// choosing the unit by magnitude so a negative delta reads like a positive
// one.
func FormatPs(ps int64) string {
	switch {
	case ps >= 1e9 || ps <= -1e9:
		return fmt.Sprintf("%.3f ms", float64(ps)/1e9)
	case ps >= 1e6 || ps <= -1e6:
		return fmt.Sprintf("%.3f µs", float64(ps)/1e6)
	default:
		return fmt.Sprintf("%d ps", ps)
	}
}

// fmtF renders an estimator float compactly.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// WriteJSON writes the reports as deterministic indented JSON (struct
// field order is fixed; map keys are sorted by encoding/json).
func WriteJSON(w io.Writer, reports []*RunReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}
