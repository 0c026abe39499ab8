package benchmark

import "sort"

// Stat summarizes one end-to-end metric over a run's repeats: one sample
// per repeat, their quartiles, and the metric's value, which is the samples'
// median unless the metric says otherwise.
type Stat struct {
	Metric
	Samples []float64 `json:"samples"`
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
}

func newStat(m Metric, samples []float64) *Stat {
	s := &Stat{Metric: m, Samples: samples, N: len(samples)}
	if len(samples) > 0 {
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		s.Value = percentile(sorted, 0.5)
		s.Q1, s.Q3 = quartiles(sorted)
	}
	return s
}

// spread is the interquartile range as a share of the value.
func (s *Stat) spread() float64 {
	if s.Q3 == s.Q1 {
		return 0
	}
	return ratio(s.Q3-s.Q1, s.Value)
}

// percentile interpolates linearly between the closest ranks of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// quartiles returns the first and third quartiles of sorted by the method
// of Python's statistics.quantiles(data, n=4) (the "exclusive" default).
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
