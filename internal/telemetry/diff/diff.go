// Package diff is the run-vs-run differential engine: it compares two
// analyze.Run records — whatever each carries of class times, counters,
// timeline and guest profile — and emits ranked "what changed" tables:
// per-class core-time deltas, per-counter deltas, per-phase comparisons
// and per-block guest time. LoadFile reads a run back from any JSON file
// the commands write. Comparing Baseline against AssasinSb on the same
// workload quantifies the paper's memory-wall narrative: the top-ranked
// delta is the cache/DRAM-wait collapse that the stream buffers buy.
//
// Everything is deterministic: rankings sort by magnitude with key-order
// tiebreaks, so identical inputs render byte-identical output.
package diff

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"assasin/internal/cpu"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/kprof"
	"assasin/internal/telemetry/timeline"
)

// ClassDelta is one stall class's change in summed core time.
type ClassDelta struct {
	Class string `json:"class"`
	APs   int64  `json:"a_ps"`
	BPs   int64  `json:"b_ps"`
	// AFrac/BFrac are each side's share of its run's total core time.
	AFrac float64 `json:"a_frac"`
	BFrac float64 `json:"b_frac"`
	// DeltaPs is BPs - APs; rankings sort by its magnitude.
	DeltaPs int64 `json:"delta_ps"`
}

// CounterDelta is one counter's change.
type CounterDelta struct {
	Key   string `json:"key"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
	Delta int64  `json:"delta"`
	// Ratio is B/A, or 0 when A is 0 (JSON cannot carry infinities; the
	// text renderer shows such rows as "inf").
	Ratio float64 `json:"ratio"`
	// score ranks counters by |delta| weighted by relative change, so a
	// counter that doubled outranks one that moved 1% by the same absolute
	// amount.
	score float64
}

// BlockDelta is one guest basic block's change in attributed core time.
// Key is "kernel [start,end)"; blocks present on only one side compare
// against zero.
type BlockDelta struct {
	Key     string `json:"key"`
	APs     int64  `json:"a_ps"`
	BPs     int64  `json:"b_ps"`
	DeltaPs int64  `json:"delta_ps"`
	AInsts  int64  `json:"a_insts"`
	BInsts  int64  `json:"b_insts"`
}

// PhaseSummary is one side's phase in the comparison.
type PhaseSummary struct {
	Class      string  `json:"class"`
	StartPs    int64   `json:"start_ps"`
	EndPs      int64   `json:"end_ps"`
	DurationPs int64   `json:"duration_ps"`
	Frac       float64 `json:"frac"` // share of that run's duration
}

// PhaseComparison lines the two segmentations up.
type PhaseComparison struct {
	A []PhaseSummary `json:"a"`
	B []PhaseSummary `json:"b"`
	// ClassDurations ranks per-class phase-time changes: for each class,
	// the total duration of phases dominated by it on each side.
	ClassDurations []ClassDelta `json:"class_durations,omitempty"`
}

// Report is the differential between two runs (A → B).
type Report struct {
	A string `json:"a"`
	B string `json:"b"`
	// Headline is the one-line answer to "what changed": the top-ranked
	// class delta (or counter delta when no class data is present).
	Headline string `json:"headline"`
	// TopClass is the class behind the headline ("" when class data was
	// unavailable) — the machine-readable pin for tests.
	TopClass string `json:"top_class,omitempty"`

	ADurationPs    int64   `json:"a_duration_ps,omitempty"`
	BDurationPs    int64   `json:"b_duration_ps,omitempty"`
	AThroughputBps float64 `json:"a_throughput_bps,omitempty"`
	BThroughputBps float64 `json:"b_throughput_bps,omitempty"`

	// Classes ranks every stall class by |DeltaPs|, largest first.
	Classes []ClassDelta `json:"classes,omitempty"`
	// Counters ranks counter deltas (top MaxCounters survive).
	Counters []CounterDelta `json:"counters,omitempty"`
	// Phases compares the two timelines' segmentations when both exist.
	Phases *PhaseComparison `json:"phases,omitempty"`
	// Blocks ranks guest basic-block time deltas when either side carried
	// a kprof profile (top MaxBlocks survive).
	Blocks []BlockDelta `json:"blocks,omitempty"`
}

// MaxCounters bounds the ranked counter table; everything below the cut is
// omitted from the report (the full snapshots remain in the input files).
const MaxCounters = 20

// MaxBlocks bounds the ranked guest-block table.
const MaxBlocks = 12

// Compare builds the differential report A → B. Each side is read whole:
// class rows from ClassPs, counters from Metrics, duration and throughput
// from DurationPs and InputBytes, phases from Timeline (both sides) and
// guest blocks from Profile (either side). An empty label reads "A" or "B".
func Compare(a, b analyze.Run) *Report {
	rep := &Report{
		A: a.Label, B: b.Label,
		ADurationPs: a.DurationPs, BDurationPs: b.DurationPs,
		AThroughputBps: a.ThroughputBps(), BThroughputBps: b.ThroughputBps(),
	}
	if rep.A == "" {
		rep.A = "A"
	}
	if rep.B == "" {
		rep.B = "B"
	}

	rep.Classes = classDeltas(a.ClassPs, b.ClassPs)
	rep.Counters = counterDeltas(a.Metrics, b.Metrics)
	if a.Timeline != nil && b.Timeline != nil {
		rep.Phases = comparePhases(a.Timeline, b.Timeline)
	}
	if a.Profile != nil || b.Profile != nil {
		rep.Blocks = blockDeltas(a.Profile, b.Profile)
	}

	switch {
	case len(rep.Classes) > 0:
		top := rep.Classes[0]
		rep.TopClass = top.Class
		rep.Headline = fmt.Sprintf("%s: %s -> %s (%s of core time %.1f%% -> %.1f%%)",
			top.Class, analyze.FormatPs(top.APs), analyze.FormatPs(top.BPs), signedPs(top.DeltaPs),
			100*top.AFrac, 100*top.BFrac)
	case len(rep.Counters) > 0:
		top := rep.Counters[0]
		rep.Headline = fmt.Sprintf("%s: %d -> %d (%+d)", top.Key, top.A, top.B, top.Delta)
	default:
		rep.Headline = "no comparable data"
	}
	return rep
}

// classDeltas ranks the five classes by |delta|, canonical order breaking
// ties. Returns nil when neither side had core time.
func classDeltas(a, b [cpu.NumClasses]int64) []ClassDelta {
	var aTotal, bTotal int64
	for i := range a {
		aTotal += a[i]
		bTotal += b[i]
	}
	if aTotal == 0 && bTotal == 0 {
		return nil
	}
	var out []ClassDelta
	for i, class := range cpu.ClassNames {
		d := ClassDelta{Class: class, APs: a[i], BPs: b[i]}
		d.DeltaPs = d.BPs - d.APs
		if aTotal > 0 {
			d.AFrac = float64(d.APs) / float64(aTotal)
		}
		if bTotal > 0 {
			d.BFrac = float64(d.BPs) / float64(bTotal)
		}
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool { return abs64(out[i].DeltaPs) > abs64(out[j].DeltaPs) })
	return out
}

// counterDeltas ranks changed counters; the score weights absolute movement
// by log-relative change so both "huge but proportional" and "small but
// ratio-shattering" changes surface, deterministically tie-broken by key.
// A side without a snapshot has no counters.
func counterDeltas(as, bs *telemetry.MetricsSnapshot) []CounterDelta {
	var a, b map[string]int64
	if as != nil {
		a = as.Counters
	}
	if bs != nil {
		b = bs.Counters
	}
	var out []CounterDelta
	for k := range union(a, b) {
		d := CounterDelta{Key: k, A: a[k], B: b[k]}
		d.Delta = d.B - d.A
		if d.Delta == 0 {
			continue
		}
		if d.A > 0 {
			d.Ratio = float64(d.B) / float64(d.A)
		}
		rel := math.Abs(math.Log2((float64(d.B) + 1) / (float64(d.A) + 1)))
		d.score = float64(abs64(d.Delta)) * (1 + rel)
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > MaxCounters {
		out = out[:MaxCounters]
	}
	return out
}

// blockStats flattens one profile into a per-block map keyed by
// "kernel [start,end)".
func blockStats(p *kprof.Profile) map[string]BlockDelta {
	if p == nil {
		return nil
	}
	out := make(map[string]BlockDelta)
	for _, k := range p.Kernels {
		for _, blk := range k.Blocks {
			key := fmt.Sprintf("%s [%d,%d)", k.Kernel, blk.Start, blk.End)
			d := out[key]
			d.Key = key
			d.APs += blk.TotalPs()
			d.AInsts += blk.Insts
			out[key] = d
		}
	}
	return out
}

// blockDeltas ranks guest basic blocks by |delta| of attributed time,
// key-order breaking ties. One-sided blocks (a kernel only one run
// executed) compare against zero.
func blockDeltas(a, b *kprof.Profile) []BlockDelta {
	as, bs := blockStats(a), blockStats(b)
	var out []BlockDelta
	for k := range union(as, bs) {
		d := BlockDelta{Key: k, APs: as[k].APs, BPs: bs[k].APs, AInsts: as[k].AInsts, BInsts: bs[k].AInsts}
		d.DeltaPs = d.BPs - d.APs
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := abs64(out[i].DeltaPs), abs64(out[j].DeltaPs)
		if di != dj {
			return di > dj
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > MaxBlocks {
		out = out[:MaxBlocks]
	}
	return out
}

// comparePhases summarizes both segmentations and ranks per-class phase-
// duration changes.
func comparePhases(a, b *timeline.Timeline) *PhaseComparison {
	pc := &PhaseComparison{
		A: phaseSummaries(a),
		B: phaseSummaries(b),
	}
	durByClass := func(ps []PhaseSummary) map[string]int64 {
		out := make(map[string]int64)
		for _, p := range ps {
			out[p.Class] += p.DurationPs
		}
		return out
	}
	ad, bd := durByClass(pc.A), durByClass(pc.B)
	for k := range union(ad, bd) {
		d := ClassDelta{Class: k, APs: ad[k], BPs: bd[k]}
		d.DeltaPs = d.BPs - d.APs
		pc.ClassDurations = append(pc.ClassDurations, d)
	}
	sort.Slice(pc.ClassDurations, func(i, j int) bool {
		di, dj := abs64(pc.ClassDurations[i].DeltaPs), abs64(pc.ClassDurations[j].DeltaPs)
		if di != dj {
			return di > dj
		}
		return pc.ClassDurations[i].Class < pc.ClassDurations[j].Class
	})
	return pc
}

// phaseSummaries flattens one timeline's phases.
func phaseSummaries(tl *timeline.Timeline) []PhaseSummary {
	var dur int64
	if n := len(tl.TimesPs); n > 0 {
		dur = tl.TimesPs[n-1]
	}
	out := make([]PhaseSummary, 0, len(tl.Phases))
	for _, p := range tl.Phases {
		s := PhaseSummary{
			Class: p.Class, StartPs: p.StartPs, EndPs: p.EndPs, DurationPs: p.DurationPs(),
		}
		if dur > 0 {
			s.Frac = float64(s.DurationPs) / float64(dur)
		}
		out = append(out, s)
	}
	return out
}

// Format renders the report as an aligned text table.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Differential — %s vs %s\n", r.A, r.B)
	if r.ADurationPs > 0 || r.BDurationPs > 0 {
		fmt.Fprintf(&b, "  duration    %s -> %s (%s)\n",
			analyze.FormatPs(r.ADurationPs), analyze.FormatPs(r.BDurationPs), ratioStr(float64(r.BDurationPs), float64(r.ADurationPs)))
	}
	if r.AThroughputBps > 0 || r.BThroughputBps > 0 {
		fmt.Fprintf(&b, "  throughput  %.2f GB/s -> %.2f GB/s (%s)\n",
			r.AThroughputBps/1e9, r.BThroughputBps/1e9, ratioStr(r.BThroughputBps, r.AThroughputBps))
	}
	fmt.Fprintf(&b, "  what changed: %s\n", r.Headline)
	if len(r.Classes) > 0 {
		fmt.Fprintf(&b, "  core time by class (ranked by |delta|):\n")
		fmt.Fprintf(&b, "    %-20s%14s%14s%14s%10s%10s\n", "class", "a", "b", "delta", "a-frac", "b-frac")
		for _, d := range r.Classes {
			fmt.Fprintf(&b, "    %-20s%14s%14s%14s%9.1f%%%9.1f%%\n",
				d.Class, analyze.FormatPs(d.APs), analyze.FormatPs(d.BPs), signedPs(d.DeltaPs), 100*d.AFrac, 100*d.BFrac)
		}
	}
	if len(r.Counters) > 0 {
		fmt.Fprintf(&b, "  counters (top %d by weighted |delta|):\n", len(r.Counters))
		fmt.Fprintf(&b, "    %-32s%14s%14s%14s%9s\n", "counter", "a", "b", "delta", "ratio")
		for _, d := range r.Counters {
			fmt.Fprintf(&b, "    %-32s%14d%14d%+14d%9s\n", d.Key, d.A, d.B, d.Delta, ratioCell(d))
		}
	}
	if len(r.Blocks) > 0 {
		fmt.Fprintf(&b, "  guest hot blocks (top %d by |delta|):\n", len(r.Blocks))
		fmt.Fprintf(&b, "    %-36s%14s%14s%14s%12s%12s\n", "block", "a", "b", "delta", "a-insts", "b-insts")
		for _, d := range r.Blocks {
			fmt.Fprintf(&b, "    %-36s%14s%14s%14s%12d%12d\n",
				d.Key, analyze.FormatPs(d.APs), analyze.FormatPs(d.BPs), signedPs(d.DeltaPs), d.AInsts, d.BInsts)
		}
	}
	if r.Phases != nil {
		fmt.Fprintf(&b, "  phases:\n")
		writePhases := func(side string, ps []PhaseSummary) {
			for _, p := range ps {
				fmt.Fprintf(&b, "    %s  %-20s%14s ->%13s%8.1f%%\n",
					side, p.Class, analyze.FormatPs(p.StartPs), analyze.FormatPs(p.EndPs), 100*p.Frac)
			}
		}
		writePhases("a", r.Phases.A)
		writePhases("b", r.Phases.B)
		if len(r.Phases.ClassDurations) > 0 {
			fmt.Fprintf(&b, "  phase time by dominant class (ranked by |delta|):\n")
			for _, d := range r.Phases.ClassDurations {
				fmt.Fprintf(&b, "    %-20s%14s%14s%14s\n",
					d.Class, analyze.FormatPs(d.APs), analyze.FormatPs(d.BPs), signedPs(d.DeltaPs))
			}
		}
	}
	return b.String()
}

// WriteJSON writes the report as deterministic indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// union returns the keys of a and b.
func union[V any](a, b map[string]V) map[string]bool {
	keys := make(map[string]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	return keys
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// signedPs is analyze.FormatPs with an explicit sign.
func signedPs(ps int64) string {
	if ps > 0 {
		return "+" + analyze.FormatPs(ps)
	}
	return analyze.FormatPs(ps)
}

// ratioStr renders b/a as a multiplier.
func ratioStr(b, a float64) string {
	if a <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", b/a)
}

// ratioCell renders one counter row's ratio; a counter appearing from zero
// has no finite ratio and shows as "inf".
func ratioCell(d CounterDelta) string {
	switch {
	case d.A == 0 && d.B != 0:
		return "inf"
	case d.Ratio == 0:
		return "0"
	default:
		return fmt.Sprintf("%.2fx", d.Ratio)
	}
}
