package benchmark

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// Verdicts of a comparison.
const (
	Worse      = "worse"
	Better     = "better"
	Same       = "same"
	Unresolved = "unresolved"
)

// judge compares a baseline metric a with a candidate b. The change is
// worse or better when the values differ by more than the bound in that
// direction, and the same otherwise. When either side's quartile spread
// exceeds the bound the pair is unresolved instead, unless every run of one
// side beats every run of the other.
func judge(a, b *Stat) (delta float64, verdict string) {
	delta = relChange(a.Value, b.Value)
	worseBy := delta
	if a.Better == "higher" {
		worseBy = -delta
	}
	separated := beats(a, b) || beats(b, a)
	switch {
	case math.Max(a.spread(), b.spread()) > a.Bound && !separated:
		return delta, Unresolved
	case worseBy > a.Bound:
		return delta, Worse
	case worseBy < -a.Bound:
		return delta, Better
	}
	return delta, Same
}

// relChange returns (b-a)/|a|; any change from 0 is infinite.
func relChange(a, b float64) float64 {
	switch {
	case a != 0:
		return (b - a) / math.Abs(a)
	case b > 0:
		return math.Inf(1)
	case b < 0:
		return math.Inf(-1)
	}
	return 0
}

// beats reports whether every sample of x is better than every sample of y.
func beats(x, y *Stat) bool {
	if len(x.Samples) == 0 || len(y.Samples) == 0 {
		return false
	}
	if x.Better == "higher" {
		return slices.Min(x.Samples) > slices.Max(y.Samples)
	}
	return slices.Max(x.Samples) < slices.Min(y.Samples)
}

func (r *Results) workload(name string) *WorkloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Compare prints, for every (workload, end-to-end metric) pair the two
// result files share, each side's value and quartiles, the change, the
// bound and the verdict; then the Reported metrics without a verdict; then,
// where both files hold a traced run, each layer's profiled self time. It
// reports whether the candidate b is worse on any pair or either file
// records a failed op.
func Compare(w io.Writer, a, b *Results) (failed bool) {
	fmt.Fprintf(w, "baseline %s (seed %d) vs candidate %s (seed %d)\n", a.Env.Revision, a.Seed, b.Env.Revision, b.Seed)
	for _, wb := range b.Workloads {
		wa := a.workload(wb.Name)
		if wa == nil {
			fmt.Fprintf(w, "== %s: not in the baseline\n", wb.Name)
			continue
		}
		fmt.Fprintf(w, "== %s\n  %-16s %12s %12s %12s   %12s %12s %12s %9s %6s  %s\n", wb.Name,
			"metric", "base", "q1", "q3", "cand", "q1", "q3", "change", "bound", "verdict")
		row := func(m Metric, delta float64, verdict string) {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			fmt.Fprintf(w, "  %-16s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g %+8.1f%% %5.0f%%  %s\n",
				m.Name, sa.Value, sa.Q1, sa.Q3, sb.Value, sb.Q1, sb.Q3, 100*delta, 100*sa.Bound, verdict)
		}
		for _, m := range EndToEnd {
			if wa.Metrics[m.Name] == nil || wb.Metrics[m.Name] == nil {
				continue
			}
			delta, v := judge(wa.Metrics[m.Name], wb.Metrics[m.Name])
			if v == Worse {
				failed = true
			}
			row(m, delta, v)
		}
		for _, m := range Reported {
			if m != failFrac && wa.Metrics[m.Name] != nil && wb.Metrics[m.Name] != nil {
				row(m, relChange(wa.Metrics[m.Name].Value, wb.Metrics[m.Name].Value), "(not gated)")
			}
		}
		fmt.Fprintf(w, "  failed ops: baseline %d of %d, candidate %d of %d\n", wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		if wa.Failed > 0 || wb.Failed > 0 {
			failed = true
		}
		compareLayers(w, wa, wb)
	}
	return failed
}

// compareLayers prints each layer's profiled self time on both sides and
// names the layer whose self time grew most. A traced run is one sample, so
// this attributes a change the end-to-end verdicts found; it is not a
// verdict itself.
func compareLayers(w io.Writer, wa, wb *WorkloadResult) {
	if wa.Layers == nil || wb.Layers == nil {
		return
	}
	self := func(wr *WorkloadResult, layer string) float64 {
		return wr.Layers[layer+".self_pct"] / 100 * wr.Layers["trace.cpu_s"]
	}
	grew, most := "", 0.0
	fmt.Fprintf(w, "  %-16s %12s %12s %12s\n", "layer self_s", "base", "cand", "change")
	for _, l := range Layers {
		a, b := self(wa, l), self(wb, l)
		if a == 0 && b == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-16s %12.4f %12.4f %+12.4f\n", l, a, b, b-a)
		if b-a > most {
			grew, most = l, b-a
		}
	}
	if grew != "" {
		fmt.Fprintf(w, "  largest self-time growth: %s (+%.3f s)\n", grew, most)
	}
}
