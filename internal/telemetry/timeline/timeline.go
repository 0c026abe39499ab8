// Package timeline turns the end-of-run aggregates of internal/telemetry
// into time-resolved data: a sim-clock-driven Sampler snapshots every
// registered gauge and the per-interval delta of every counter into compact
// columnar series, bounded in memory by automatic 2× decimation, and a
// deterministic phase segmenter splits the run into contiguous phases by
// dominant stall class.
//
// The sampler is driven by the simulation itself (sim.Scheduler.OnAdvance
// calls Tick with the committed horizon before each dispatch), so sampling
// happens in simulated time, not wall time, and two runs of the same
// workload produce byte-identical timelines regardless of host scheduling
// or -parallel settings.
//
// Zero-cost contract: a nil *Sampler is a valid disabled sampler — Tick,
// AddProbe and Finish are nil-receiver no-ops, so the scheduler's hot loop
// pays one nil-pointer branch when timelines are off.
//
// The package deliberately depends only on internal/telemetry: stall-class
// series are ordinary series under the "class/" key prefix, registered by
// the SSD layer through probes, so timeline needs no knowledge of the
// analyze package's taxonomy (analyze consumes timelines, not vice versa).
package timeline

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"

	"assasin/internal/telemetry"
)

// DefaultIntervalPs is the default base sampling interval: 10 µs of
// simulated time, an order of magnitude above the scheduler's 1 µs dispatch
// quantum (which bounds sampling skew, see Tick) and fine enough to resolve
// flash-page-granularity behavior (a 4 KiB page transfer takes ~4 µs on a
// 1 GB/s channel).
const DefaultIntervalPs = 10_000_000

// capacity bounds the number of retained samples. When a sample would
// exceed it, every series is decimated 2×: adjacent sample pairs merge —
// rate series sum (preserving integrals), value series keep the later
// sample — and the effective interval doubles, so memory stays bounded for
// arbitrarily long runs. A full timeline of 60 series then holds well
// under 2 MB.
const capacity = 2048

// ClassPrefix marks the series the phase segmenter consumes. The SSD layer
// registers one cumulative probe per stall class under "class/<name>".
const ClassPrefix = "class/"

// Config parameterizes a Sampler.
type Config struct {
	// IntervalPs is the base sampling interval in simulated picoseconds
	// (default DefaultIntervalPs). Decimation doubles the effective
	// interval; the base interval is preserved in the output for reference.
	IntervalPs int64
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.IntervalPs <= 0 {
		c.IntervalPs = DefaultIntervalPs
	}
	return c
}

// Probe contributes sampler-pulled values that live outside the metric
// registry (e.g. per-core cycle accounting summed on demand). At each
// sample the probe calls emit once per key with the value accumulated since
// the start of the run; the sampler differentiates consecutive samples into
// a per-interval rate series. Keys first emitted mid-run are backfilled
// with zeros for the samples they missed.
type Probe func(emit func(key string, cumulative int64))

// series is one metric's column. Rate series hold per-interval deltas of a
// cumulative source (counters, probes); value series hold sampled gauge
// values.
type series struct {
	key  string
	rate bool
	vals []int64
	prev int64 // last cumulative value seen (rate series only)
}

// Sampler accumulates columnar samples as the simulation advances. Not
// goroutine-safe: it belongs to the run's simulation goroutine, like the
// sink it reads.
type Sampler struct {
	cfg  Config
	sink *telemetry.Sink

	ivalPs int64 // effective interval (doubles on decimation)
	nextPs int64 // next sample boundary
	decims int

	times  []int64
	byKey  map[string]*series
	order  []*series // registration order, for deterministic iteration
	probes []Probe

	counters []counterHandle
	gauges   []gaugeHandle
	known    int // sink registry size at last refresh

	track *telemetry.Track // class counter mirror; nil unless the sink records events
}

type counterHandle struct {
	c  *telemetry.Counter
	se *series
}

type gaugeHandle struct {
	g  *telemetry.Gauge
	se *series
}

// New builds a sampler over sink (which may be nil: then only probe-fed
// series are collected). Metrics already registered on the sink are primed
// at their current values, so on a sink shared across runs the first
// interval's counter deltas cover only this run. When the sink records
// trace events, the class series are mirrored into it as Chrome "ph":"C"
// counter samples on a "timeline" track, so Perfetto renders stall-class
// lanes alongside the span swim-lanes. Only class series are mirrored:
// full-registry mirroring would dwarf the span events the trace exists for.
func New(sink *telemetry.Sink, cfg Config) *Sampler {
	s := &Sampler{
		cfg:   cfg.withDefaults(),
		sink:  sink,
		byKey: make(map[string]*series),
	}
	s.ivalPs = s.cfg.IntervalPs
	s.nextPs = s.ivalPs
	s.refresh()
	if sink.RecordsEvents() {
		s.track = sink.Track("timeline")
	}
	return s
}

// AddProbe registers a probe; nil-safe.
func (s *Sampler) AddProbe(p Probe) {
	if s == nil || p == nil {
		return
	}
	s.probes = append(s.probes, p)
}

// Tick advances the sampler to the committed simulation time nowPs, taking
// a sample at every interval boundary crossed. The scheduler calls it
// before each dispatch, so a boundary is sampled when the first process
// crosses it; conservative interleaving bounds the skew of other processes'
// state by the scheduler quantum (1 µs by default, a tenth of the default
// interval). Calls with an earlier time than a previous call are no-ops,
// which also makes the disabled/idle fast path a single comparison.
func (s *Sampler) Tick(nowPs int64) {
	if s == nil || nowPs < s.nextPs {
		return
	}
	for s.nextPs <= nowPs {
		s.sampleAt(s.nextPs)
		s.nextPs += s.ivalPs
	}
}

// refresh discovers metrics registered on the sink since the last sample
// and attaches handles. Series appearing at sample n are backfilled with n
// zeros; increments that predate discovery are dropped from the series (the
// registry is scanned every sample, so at most one interval's worth).
func (s *Sampler) refresh() {
	if s.sink == nil || s.sink.RegisteredCount() == s.known {
		return
	}
	for _, mi := range s.sink.Registered() {
		key := mi.Component + "/" + mi.Name
		if _, ok := s.byKey[key]; ok {
			continue
		}
		switch mi.Kind {
		case telemetry.KindCounter:
			c := s.sink.Counter(mi.Component, mi.Name)
			se := s.addSeries(key, true)
			se.prev = c.Value()
			s.counters = append(s.counters, counterHandle{c: c, se: se})
		case telemetry.KindGauge:
			g := s.sink.Gauge(mi.Component, mi.Name)
			s.gauges = append(s.gauges, gaugeHandle{g: g, se: s.addSeries(key, false)})
		}
		// Histograms are not sampled: they are already cumulative
		// distribution summaries, and their end-of-run percentiles are what
		// the attribution report consumes.
	}
	s.known = s.sink.RegisteredCount()
}

// addSeries registers a new column, zero-backfilled to the current length.
func (s *Sampler) addSeries(key string, rate bool) *series {
	capHint := capacity
	if len(s.times) > capHint {
		capHint = len(s.times)
	}
	se := &series{key: key, rate: rate, vals: make([]int64, len(s.times), capHint)}
	s.byKey[key] = se
	s.order = append(s.order, se)
	return se
}

// emitProbe receives one probe key's cumulative value during sampleAt.
func (s *Sampler) emitProbe(key string, cumulative int64) {
	se := s.byKey[key]
	if se == nil {
		se = s.addSeries(key, true)
	}
	d := cumulative - se.prev
	se.prev = cumulative
	if len(se.vals) < len(s.times) {
		se.vals = append(se.vals, d)
	} else if n := len(se.vals); n > 0 {
		se.vals[n-1] += d // repeated emit within one sample accumulates
	}
}

// sampleAt appends one sample at timestamp ts to every series.
func (s *Sampler) sampleAt(ts int64) {
	s.refresh()
	s.times = append(s.times, ts)
	for _, h := range s.counters {
		v := h.c.Value()
		h.se.vals = append(h.se.vals, v-h.se.prev)
		h.se.prev = v
	}
	for _, h := range s.gauges {
		h.se.vals = append(h.se.vals, h.g.Value())
	}
	for _, p := range s.probes {
		p(s.emitProbe)
	}
	// Probes may skip keys on some samples; pad their columns so every
	// series stays aligned with times (a skipped cumulative key gained 0).
	n := len(s.times)
	for _, se := range s.order {
		for len(se.vals) < n {
			se.vals = append(se.vals, 0)
		}
	}
	if s.track != nil {
		for _, se := range s.order {
			if len(se.key) > len(ClassPrefix) && se.key[:len(ClassPrefix)] == ClassPrefix {
				s.track.Counter(se.key, ts, se.vals[n-1])
			}
		}
	}
	if n >= capacity {
		s.decimate()
	}
}

// decimate halves every column: sample pairs (2k, 2k+1) merge into sample
// k, keeping the later timestamp; rate columns sum the pair (the series
// integral is preserved exactly), value columns keep the later value. The
// effective interval doubles.
func (s *Sampler) decimate() {
	n := len(s.times)
	half := n / 2
	for k := 0; k < half; k++ {
		s.times[k] = s.times[2*k+1]
	}
	s.times = s.times[:half]
	for _, se := range s.order {
		for k := 0; k < half; k++ {
			if se.rate {
				se.vals[k] = se.vals[2*k] + se.vals[2*k+1]
			} else {
				se.vals[k] = se.vals[2*k+1]
			}
		}
		se.vals = se.vals[:half]
	}
	s.ivalPs *= 2
	s.decims++
}

// Series is one exported metric column, aligned with Timeline.TimesPs.
type Series struct {
	Key string `json:"key"`
	// Kind is "rate" (per-interval delta of a cumulative source) or
	// "value" (sampled gauge).
	Kind   string  `json:"kind"`
	Values []int64 `json:"values"`
}

// Timeline is the frozen, exportable result of one run's sampling:
// columnar — one shared timestamp column plus one value column per metric —
// so consumers index sample i across all series at once. Sample i covers
// the half-open sim-time window (TimesPs[i-1], TimesPs[i]] (from 0 for
// i = 0).
type Timeline struct {
	// Run labels the run (e.g. "Stat/AssasinSb").
	Run string `json:"run,omitempty"`
	// IntervalPs is the effective sampling interval after decimation;
	// BaseIntervalPs is the configured interval, with Decimations doublings
	// between them. The final sample may close early at the run's end.
	IntervalPs     int64 `json:"interval_ps"`
	BaseIntervalPs int64 `json:"base_interval_ps"`
	Decimations    int   `json:"decimations"`
	// TimesPs is the shared timestamp column (end of each sample window).
	TimesPs []int64 `json:"times_ps"`
	// Series holds one column per metric, sorted by key.
	Series []Series `json:"series"`
	// Phases is the dominant-stall-class segmentation (see Phase).
	Phases []Phase `json:"phases,omitempty"`
}

// Finish takes a final sample at endPs when the run ended past the last
// boundary, then freezes the sampler into a Timeline labeled run. Returns
// nil on a nil sampler. The sampler should not be ticked after Finish.
func (s *Sampler) Finish(run string, endPs int64) *Timeline {
	if s == nil {
		return nil
	}
	if endPs > 0 && (len(s.times) == 0 || endPs > s.times[len(s.times)-1]) {
		s.sampleAt(endPs)
	}
	tl := &Timeline{
		Run:            run,
		IntervalPs:     s.ivalPs,
		BaseIntervalPs: s.cfg.IntervalPs,
		Decimations:    s.decims,
		TimesPs:        append([]int64(nil), s.times...),
	}
	tl.Series = make([]Series, 0, len(s.order))
	for _, se := range s.order {
		kind := "value"
		if se.rate {
			kind = "rate"
		}
		tl.Series = append(tl.Series, Series{
			Key: se.key, Kind: kind, Values: append([]int64(nil), se.vals...),
		})
	}
	sort.Slice(tl.Series, func(i, j int) bool { return tl.Series[i].Key < tl.Series[j].Key })
	tl.Phases = segmentPhases(tl)
	return tl
}

// SeriesByKey returns the column stored under key, or nil.
func (t *Timeline) SeriesByKey(key string) *Series {
	if t == nil {
		return nil
	}
	i := sort.Search(len(t.Series), func(i int) bool { return t.Series[i].Key >= key })
	if i < len(t.Series) && t.Series[i].Key == key {
		return &t.Series[i]
	}
	return nil
}

// WriteJSON writes the timeline as indented JSON. Field order is fixed and
// every slice is deterministically ordered, so output is byte-stable for
// identical runs.
func (t *Timeline) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile writes the timeline JSON to path, creating parent directories
// as needed.
func (t *Timeline) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
