package timeline

// Phase segmentation: the run splits into contiguous phases by dominant
// stall class, computed from the "class/" rate series (picoseconds of core
// time per sample window, summed across cores). The rules are deliberately
// simple and fully deterministic:
//
//  1. Each sample's dominant class is the class series with the largest
//     value; ties break to the lexicographically smaller key.
//  2. Samples whose class values are all zero (cores idle, e.g. trailing
//     output drains) extend the current phase; a leading all-zero stretch
//     becomes an "idle" phase.
//  3. Contiguous samples with the same dominant class form a phase.
//  4. Smoothing: a phase shorter than minPhaseSamples merges into its
//     predecessor (the first phase instead merges into its successor),
//     so one-sample flickers at phase boundaries don't fragment the
//     segmentation. The survivor keeps its class; the absorbed samples'
//     class times are added to its totals.

// Phase is one contiguous dominant-class segment of a run.
type Phase struct {
	// Class is the dominant stall class, without the "class/" prefix
	// (e.g. "cache-dram-wait"), or "idle" for a leading all-zero stretch.
	Class string `json:"class"`
	// StartPs/EndPs bound the phase's sim-time window (start exclusive,
	// end inclusive, matching the sample-window convention).
	StartPs int64 `json:"start_ps"`
	EndPs   int64 `json:"end_ps"`
	// Samples is how many timeline samples the phase spans.
	Samples int `json:"samples"`
	// ClassPs sums each class's core time inside the phase.
	ClassPs map[string]int64 `json:"class_ps,omitempty"`
}

// DurationPs returns the phase's sim-time length.
func (p Phase) DurationPs() int64 { return p.EndPs - p.StartPs }

// minPhaseSamples is the smoothing floor of rule 4.
const minPhaseSamples = 2

// segmentPhases implements the rules above over a frozen timeline.
func segmentPhases(tl *Timeline) []Phase {
	var classes []Series
	for _, se := range tl.Series {
		if len(se.Key) > len(ClassPrefix) && se.Key[:len(ClassPrefix)] == ClassPrefix {
			classes = append(classes, se)
		}
	}
	if len(classes) == 0 || len(tl.TimesPs) == 0 {
		return nil
	}

	// Dominant class per sample (rule 1-2). tl.Series is sorted by key, so
	// scanning in order and requiring a strict improvement implements the
	// lexicographic tiebreak.
	dominant := make([]string, len(tl.TimesPs))
	for i := range tl.TimesPs {
		best := ""
		var bestV int64
		for _, se := range classes {
			if v := se.Values[i]; v > bestV {
				bestV, best = v, se.Key[len(ClassPrefix):]
			}
		}
		dominant[i] = best // "" when all zero
	}

	// Raw phases (rule 3), with all-zero samples extending the current one.
	var phases []Phase
	addSample := func(p *Phase, i int) {
		p.EndPs = tl.TimesPs[i]
		p.Samples++
		for _, se := range classes {
			if v := se.Values[i]; v != 0 {
				if p.ClassPs == nil {
					p.ClassPs = make(map[string]int64, len(classes))
				}
				p.ClassPs[se.Key[len(ClassPrefix):]] += v
			}
		}
	}
	for i := range tl.TimesPs {
		class := dominant[i]
		if class == "" && len(phases) > 0 {
			addSample(&phases[len(phases)-1], i)
			continue
		}
		if class == "" {
			class = "idle"
		}
		if len(phases) == 0 || phases[len(phases)-1].Class != class {
			start := int64(0)
			if i > 0 {
				start = tl.TimesPs[i-1]
			}
			phases = append(phases, Phase{Class: class, StartPs: start, EndPs: start})
		}
		addSample(&phases[len(phases)-1], i)
	}

	// Smoothing (rule 4): repeatedly merge the first too-short phase until
	// none remain (or one phase is left).
	for len(phases) > 1 {
		merged := false
		for i := range phases {
			if phases[i].Samples >= minPhaseSamples {
				continue
			}
			dst := i - 1
			if i == 0 {
				dst = 1
			}
			phases[dst] = mergePhases(phases[dst], phases[i], dst > i)
			phases = append(phases[:i], phases[i+1:]...)
			merged = true
			break
		}
		if !merged {
			break
		}
	}

	// Absorbing a short phase can leave its two neighbors — which share a
	// class — adjacent; coalesce them so phases are maximal.
	out := phases[:1]
	for _, p := range phases[1:] {
		last := &out[len(out)-1]
		if last.Class == p.Class {
			*last = mergePhases(*last, p, false)
		} else {
			out = append(out, p)
		}
	}
	return out
}

// mergePhases absorbs short into keep; keepIsLater tells which side's
// boundary survives on each end.
func mergePhases(keep, short Phase, keepIsLater bool) Phase {
	if keepIsLater {
		keep.StartPs = short.StartPs
	} else {
		keep.EndPs = short.EndPs
	}
	keep.Samples += short.Samples
	for class, ps := range short.ClassPs {
		if keep.ClassPs == nil {
			keep.ClassPs = make(map[string]int64, len(short.ClassPs))
		}
		keep.ClassPs[class] += ps
	}
	return keep
}
