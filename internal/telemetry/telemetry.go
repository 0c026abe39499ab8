// Package telemetry is the simulator-wide observability layer: typed
// counters, gauges and histograms registered per component, plus a
// sim-clock-driven event trace exportable as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing) and as a flat metrics JSON.
//
// Zero-cost contract: instrumentation is enabled by handing components a
// *Sink (ssd.Options.Telemetry); when disabled every component holds nil
// metric/track pointers and every method on Counter, Gauge, Histogram and
// Track is nil-receiver safe, so a disabled call site compiles to a branch
// on a nil pointer with no allocation. Hot paths (the core interpreter's
// per-instruction loop, stream gather/append) are never instrumented
// per-event — counters are bumped at page/run-slice granularity on paths
// that already do real work.
//
// Timestamps are simulated time in integer picoseconds passed as int64.
// The package deliberately does not import internal/sim so that every
// simulator package — including sim itself — can depend on it.
//
// A Sink is not goroutine-safe: it belongs to one simulation goroutine.
// Every run observes into a private sink, and a root sink absorbs it at the
// run boundary with Absorb (goroutine-safe, as is Metrics). Metrics merge
// in any order; trace events append in absorption order, so trace capture
// still runs its runs one at a time.
package telemetry

import (
	"fmt"
	"log/slog"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Kind discriminates the metric types a (component, name) pair can hold.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// metricKey identifies one registered metric.
type metricKey struct{ component, name string }

// Counter is a monotonically increasing count. The zero receiver (nil) is a
// valid disabled counter: all methods are no-ops.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value metric that also tracks its maximum. Nil-safe.
type Gauge struct {
	v, max int64
	set    bool
}

// Set records v as the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	if !g.set || v > g.max {
		g.max = v
	}
	g.v = v
	g.set = true
}

// Value returns the last set value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the largest value ever set.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Histogram accumulates a distribution in power-of-two buckets: bucket i
// counts observations v with 2^(i-1) <= v < 2^i (bucket 0 counts v <= 0).
// Nil-safe.
type Histogram struct {
	buckets [65]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Reset clears the histogram back to empty. Rolling-window aggregation
// reuses ring slots through it without reallocating.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	*h = Histogram{}
}

// Absorb merges other's samples into h (bucket-wise sum, min of min, max of
// max). Both nil receiver and nil argument are no-ops; window aggregation
// folds ring slots into a scratch histogram with it so Percentile works
// unchanged on the merged distribution.
func (h *Histogram) Absorb(other *Histogram) {
	if h == nil || other == nil || other.count == 0 {
		return
	}
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// bucketOf returns v's bucket index: the bit length of v, so that
// 2^(i-1) <= v < 2^i lands in bucket i, and 0 for v <= 0.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketBounds returns bucket i's half-open value range [lo, hi) as floats
// (float math sidesteps the 1<<64 overflow of the topmost bucket). Bucket 0
// collapses to the single value 0, matching bucketOf's v <= 0 rule.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

// Percentile estimates the q-quantile (q in [0, 1]) of the recorded
// distribution: it walks the cumulative bucket counts to the bucket holding
// rank q*count and linearly interpolates inside that bucket's power-of-two
// value range. The estimate is clamped to the observed [min, max], so q=0
// returns the smallest observation, q=1 the largest, and a single-valued
// distribution reports that exact value at every quantile. Returns 0 for a
// nil or empty histogram.
func (h *Histogram) Percentile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.count)
	var cum int64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if float64(cum)+float64(n) >= target {
			lo, hi := bucketBounds(i)
			frac := (target - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			v := lo + frac*(hi-lo)
			if min := float64(h.min); v < min {
				v = min
			}
			if max := float64(h.max); v > max {
				v = max
			}
			return v
		}
		cum += n
	}
	return float64(h.max)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// MaxValue returns the largest observation.
func (h *Histogram) MaxValue() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Buckets returns the non-empty buckets as cumulative counts with
// Prometheus-style upper bounds, ascending. Bucket i's half-open range
// [2^(i-1), 2^i) exports as le = 2^i (the smallest power-of-two bound not
// below any member value under integer observations); bucket 0 as le = 0.
// Returns nil for a nil or empty histogram.
func (h *Histogram) Buckets() []BucketSnapshot {
	if h == nil || h.count == 0 {
		return nil
	}
	var out []BucketSnapshot
	var cum int64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		cum += n
		_, hi := bucketBounds(i)
		out = append(out, BucketSnapshot{LE: hi, Count: cum})
	}
	return out
}

// Sink is one telemetry collection domain: a metric registry plus a trace
// buffer. The nil *Sink is valid and disabled: registration methods return
// nil metrics/tracks whose methods are no-ops.
type Sink struct {
	kinds    map[metricKey]Kind
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram

	runs []*traceRun
	cur  *traceRun

	events []event
	// MaxEvents bounds the trace buffer; events past the cap are counted in
	// dropped (surfaced in the metrics export) rather than silently lost.
	// A negative value disables event recording entirely — per-run metric
	// sinks in parallel fan-outs use this so span/instant calls cost one
	// comparison and nothing accumulates.
	MaxEvents int
	dropped   int64

	// absorbMu serializes Absorb and Metrics calls from concurrent run
	// goroutines; every other method remains single-goroutine.
	absorbMu sync.Mutex

	// Log, when non-nil, receives one structured warning the first time the
	// trace buffer overflows MaxEvents (further drops are only counted).
	Log *slog.Logger
}

// NewSink returns an empty enabled sink.
func NewSink() *Sink {
	return &Sink{
		kinds:     make(map[metricKey]Kind),
		counters:  make(map[metricKey]*Counter),
		gauges:    make(map[metricKey]*Gauge),
		hists:     make(map[metricKey]*Histogram),
		MaxEvents: 4_000_000,
	}
}

// register checks the collision rule: a (component, name) pair may be
// registered any number of times with the same kind (get-or-create) but
// never with two different kinds.
func (s *Sink) register(component, name string, k Kind) metricKey {
	key := metricKey{component, name}
	if have, ok := s.kinds[key]; ok {
		if have != k {
			panic(fmt.Sprintf("telemetry: %s/%s already registered as %v, re-registered as %v",
				component, name, have, k))
		}
		return key
	}
	s.kinds[key] = k
	return key
}

// Counter returns the counter registered under (component, name), creating
// it on first use. Returns nil on a nil sink. Panics if the pair is already
// registered as a different metric kind.
func (s *Sink) Counter(component, name string) *Counter {
	if s == nil {
		return nil
	}
	key := s.register(component, name, KindCounter)
	c := s.counters[key]
	if c == nil {
		c = &Counter{}
		s.counters[key] = c
	}
	return c
}

// Gauge returns the gauge registered under (component, name), creating it
// on first use. Nil-sink and collision behavior match Counter.
func (s *Sink) Gauge(component, name string) *Gauge {
	if s == nil {
		return nil
	}
	key := s.register(component, name, KindGauge)
	g := s.gauges[key]
	if g == nil {
		g = &Gauge{}
		s.gauges[key] = g
	}
	return g
}

// Histogram returns the histogram registered under (component, name),
// creating it on first use. Nil-sink and collision behavior match Counter.
func (s *Sink) Histogram(component, name string) *Histogram {
	if s == nil {
		return nil
	}
	key := s.register(component, name, KindHistogram)
	h := s.hists[key]
	if h == nil {
		h = &Histogram{}
		s.hists[key] = h
	}
	return h
}

// MetricInfo identifies one registered metric for read-side iteration
// (timeline samplers discover the registry through it).
type MetricInfo struct {
	Component string
	Name      string
	Kind      Kind
}

// RegisteredCount returns how many metrics are registered. Samplers poll it
// to detect new registrations cheaply between full Registered() scans.
func (s *Sink) RegisteredCount() int {
	if s == nil {
		return 0
	}
	return len(s.kinds)
}

// Registered returns every registered metric, sorted by component then
// name, so consumers iterate the registry deterministically.
func (s *Sink) Registered() []MetricInfo {
	if s == nil {
		return nil
	}
	out := make([]MetricInfo, 0, len(s.kinds))
	for k, kind := range s.kinds {
		out = append(out, MetricInfo{Component: k.component, Name: k.name, Kind: kind})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Component != out[j].Component {
			return out[i].Component < out[j].Component
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Absorb merges a finished run's child sink into s. Counters and
// histograms sum and gauges take the maximum of value and max: every metric
// merge is commutative, so absorbing a set of per-run sinks yields the same
// metrics in any completion order — the property that makes parallel
// fan-outs deterministic. The child's trace runs and events are appended
// after s's own, its pids renumbered to follow s's runs; events past
// s.MaxEvents are dropped and counted, and the child's own drops add to
// s's. A root that records no events keeps none.
//
// Absorb and Metrics are the Sink's only goroutine-safe methods, and only
// with respect to each other: while runs are being absorbed concurrently
// the parent sink must not be used in any other way.
func (s *Sink) Absorb(child *Sink) {
	if s == nil || child == nil || s == child {
		return
	}
	s.absorbMu.Lock()
	defer s.absorbMu.Unlock()
	for key, c := range child.counters {
		s.Counter(key.component, key.name).Add(c.Value())
	}
	for key, g := range child.gauges {
		if !g.set {
			continue
		}
		dst := s.Gauge(key.component, key.name)
		if !dst.set || g.v > dst.v {
			dst.v = g.v
		}
		if !dst.set || g.max > dst.max {
			dst.max = g.max
		}
		dst.set = true
	}
	for key, h := range child.hists {
		s.Histogram(key.component, key.name).Absorb(h)
	}
	off := len(s.runs)
	for _, r := range child.runs {
		run := *r
		run.pid += off
		s.runs = append(s.runs, &run)
	}
	for _, e := range child.events {
		e.pid += off
		s.record(e)
	}
	s.dropped += child.dropped
}
