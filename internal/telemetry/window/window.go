// Package window provides sim-clock sliding-window aggregation: each
// metric keeps a ring of time buckets (configurable window span and bucket
// count, e.g. a 1 s window split into 20 buckets of 50 ms simulated time)
// over which it reports rolling counter rates and rolling latency
// distributions whose percentiles come from the same
// bucket-interpolating telemetry.Histogram code the cumulative metrics use.
//
// Rotation is lazy and driven entirely by the simulated timestamps passed
// to Advance/Observe, so window contents are a pure function of the event
// sequence — byte-identical for any wall-clock interleaving or worker
// count. Advance is sim.Scheduler.OnAdvance-compatible: the steady-state
// fast path is a single comparison against the next bucket boundary.
//
// Zero-cost contract: the nil *Windows and nil *Rate/*Hist are valid
// disabled instances (every method is a nil-receiver no-op), and enabled
// steady-state operation — Advance ticks, Rate.Add, Hist.Observe — never
// allocates after construction (the alloc-gate pins this).
//
// Like telemetry.Sink, a Windows belongs to one simulation goroutine.
// Concurrent readers get immutable Snapshot values published at rotation
// boundaries (the obs publication pattern), never the live rings.
package window

import (
	"sort"

	"assasin/internal/telemetry"
)

// Config sets the window geometry.
type Config struct {
	// WindowPs is the total sliding-window span in simulated picoseconds
	// (<= 0 selects 1 s).
	WindowPs int64
	// Buckets is how many ring buckets the window is split into (<= 0
	// selects 20). The bucket span WindowPs/Buckets is the rotation — and
	// burn-rate evaluation — granularity.
	Buckets int
}

// withDefaults resolves zero fields and rounds WindowPs to a whole number
// of buckets.
func (c Config) withDefaults() Config {
	if c.WindowPs <= 0 {
		c.WindowPs = 1_000_000_000_000 // 1 s
	}
	if c.Buckets <= 0 {
		c.Buckets = 20
	}
	bucket := c.WindowPs / int64(c.Buckets)
	if bucket <= 0 {
		bucket = 1
	}
	c.WindowPs = bucket * int64(c.Buckets)
	return c
}

// Windows is one sliding-window aggregation domain: a shared rotation clock
// plus the metrics registered on it. The nil *Windows is valid and
// disabled.
type Windows struct {
	bucketPs int64
	n        int
	windowPs int64

	started bool
	epoch   int64 // absolute index of the current bucket (time/bucketPs)
	cur     int   // ring index of the current bucket (epoch % n)
	firstPs int64 // start of the first observed bucket
	nextPs  int64 // next rotation boundary (the Advance fast-path guard)

	names map[string]bool
	rates []*Rate
	hists []*Hist

	// OnRotate, when non-nil, is called once per crossed bucket boundary
	// (at most Buckets per Advance — older boundaries have left the
	// window) with the boundary's simulated time. The SLO engine hangs its
	// deterministic burn-rate evaluation here. Callbacks run on the
	// simulation goroutine and must not re-enter Observe/Add.
	OnRotate func(boundaryPs int64)
}

// New returns an empty enabled window domain.
func New(cfg Config) *Windows {
	cfg = cfg.withDefaults()
	return &Windows{
		bucketPs: cfg.WindowPs / int64(cfg.Buckets),
		n:        cfg.Buckets,
		windowPs: cfg.WindowPs,
		names:    make(map[string]bool),
	}
}

// WindowPs returns the configured window span (0 on a nil receiver).
func (w *Windows) WindowPs() int64 {
	if w == nil {
		return 0
	}
	return w.windowPs
}

// BucketPs returns the bucket span (0 on a nil receiver).
func (w *Windows) BucketPs() int64 {
	if w == nil {
		return 0
	}
	return w.bucketPs
}

// Advance rotates the rings up to nowPs, clearing buckets that fell out of
// the window and firing OnRotate per crossed boundary. It is
// sim.Scheduler.OnAdvance-compatible; the steady-state path (same bucket)
// is one comparison.
func (w *Windows) Advance(nowPs int64) {
	if w == nil || (w.started && nowPs < w.nextPs) {
		return
	}
	w.advanceSlow(nowPs)
}

func (w *Windows) advanceSlow(nowPs int64) {
	if nowPs < 0 {
		nowPs = 0
	}
	newEpoch := nowPs / w.bucketPs
	if !w.started {
		w.started = true
		w.epoch = newEpoch
		w.cur = int(newEpoch % int64(w.n))
		w.firstPs = newEpoch * w.bucketPs
		w.nextPs = (newEpoch + 1) * w.bucketPs
		return
	}
	from := w.epoch + 1
	if newEpoch-w.epoch > int64(w.n) {
		// The whole ring is stale: clear each slot exactly once, entering
		// at the oldest epoch still inside the new window.
		from = newEpoch - int64(w.n) + 1
	}
	for e := from; e <= newEpoch; e++ {
		slot := int(e % int64(w.n))
		for _, r := range w.rates {
			r.slots[slot] = 0
		}
		for _, h := range w.hists {
			h.folded.Absorb(&h.slots[slot])
			h.slots[slot].Reset()
		}
		w.epoch, w.cur = e, slot
		w.nextPs = (e + 1) * w.bucketPs
		if w.OnRotate != nil {
			w.OnRotate(e * w.bucketPs)
		}
	}
}

// slot returns the ring index of the current bucket.
func (w *Windows) slot() int { return w.cur }

// register enforces unique metric names within the domain.
func (w *Windows) register(name string) {
	if w.names[name] {
		panic("window: metric " + name + " registered twice")
	}
	w.names[name] = true
}

// Rate registers a windowed counter under name. Returns nil on a nil
// domain. Names must be unique within the domain.
func (w *Windows) Rate(name string) *Rate {
	if w == nil {
		return nil
	}
	w.register(name)
	r := &Rate{w: w, name: name, slots: make([]int64, w.n)}
	w.rates = append(w.rates, r)
	return r
}

// Hist registers a windowed histogram under name. Returns nil on a nil
// domain.
func (w *Windows) Hist(name string) *Hist {
	if w == nil {
		return nil
	}
	w.register(name)
	h := &Hist{w: w, name: name, slots: make([]telemetry.Histogram, w.n)}
	w.hists = append(w.hists, h)
	return h
}

// spanBuckets converts a span to a whole bucket count clamped to [1, n].
func (w *Windows) spanBuckets(spanPs int64) int {
	k := int(spanPs / w.bucketPs)
	if k < 1 {
		k = 1
	}
	if k > w.n {
		k = w.n
	}
	return k
}

// Rate is a windowed counter: per-bucket counts over the ring plus a
// cumulative total. Nil-safe.
type Rate struct {
	w     *Windows
	name  string
	slots []int64
	total int64
}

// Add records n events at nowPs.
func (r *Rate) Add(nowPs, n int64) {
	if r == nil {
		return
	}
	r.w.Advance(nowPs)
	r.slots[r.w.slot()] += n
	r.total += n
}

// Inc records one event at nowPs.
func (r *Rate) Inc(nowPs int64) { r.Add(nowPs, 1) }

// WindowCount sums the events currently inside the window.
func (r *Rate) WindowCount() int64 {
	if r == nil {
		return 0
	}
	var sum int64
	for _, v := range r.slots {
		sum += v
	}
	return sum
}

// LastClosed sums the events in the trailing spanPs of *closed* buckets —
// excluding the current, still-filling bucket. Boundary evaluations (burn
// rates) use it so a freshly opened empty bucket never dilutes the short
// window.
func (r *Rate) LastClosed(spanPs int64) int64 {
	if r == nil {
		return 0
	}
	w := r.w
	k := w.spanBuckets(spanPs)
	if k > w.n-1 {
		// Only n-1 closed buckets exist distinctly from the current slot.
		k = w.n - 1
	}
	var sum int64
	for e := w.epoch - int64(k); e <= w.epoch-1; e++ {
		if e < 0 {
			continue
		}
		sum += r.slots[int(e%int64(w.n))]
	}
	return sum
}

// Total returns the cumulative count since construction.
func (r *Rate) Total() int64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Hist is a windowed histogram: one telemetry.Histogram per ring bucket
// plus the buckets that have left the ring, folded into one histogram, so
// the whole run is folded plus the ring. Nil-safe.
type Hist struct {
	w       *Windows
	name    string
	slots   []telemetry.Histogram
	folded  telemetry.Histogram // every bucket rotation has cleared
	cum     telemetry.Histogram // Cumulative's result
	scratch telemetry.Histogram // Window's and Last's result
}

// Observe records one sample at nowPs into the current bucket.
func (h *Hist) Observe(nowPs, v int64) {
	if h == nil {
		return
	}
	h.w.Advance(nowPs)
	h.slots[h.w.slot()].Observe(v)
}

// Window folds the ring into the reused scratch histogram and returns it:
// the rolling distribution over the full window, with Percentile available
// unchanged. The pointer is invalidated by the next Window/Last call.
// Returns nil on a nil receiver.
func (h *Hist) Window() *telemetry.Histogram {
	if h == nil {
		return nil
	}
	return h.Last(h.w.windowPs)
}

// Last folds the trailing spanPs of the ring (whole buckets, clamped to
// the window) into the scratch histogram and returns it.
func (h *Hist) Last(spanPs int64) *telemetry.Histogram {
	if h == nil {
		return nil
	}
	w := h.w
	h.scratch.Reset()
	k := w.spanBuckets(spanPs)
	for e := w.epoch - int64(k) + 1; e <= w.epoch; e++ {
		if e < 0 {
			continue
		}
		h.scratch.Absorb(&h.slots[int(e%int64(w.n))])
	}
	return &h.scratch
}

// Cumulative returns the run-cumulative histogram: the folded buckets plus
// the live ring, which is exact because Absorb sums buckets, counts and
// sums and keeps the min and max. The pointer is invalidated by the next
// Cumulative call. Returns nil on a nil receiver.
func (h *Hist) Cumulative() *telemetry.Histogram {
	if h == nil {
		return nil
	}
	h.cum = h.folded
	for i := range h.slots {
		h.cum.Absorb(&h.slots[i])
	}
	return &h.cum
}

// RateSnapshot is one Rate in a Snapshot.
type RateSnapshot struct {
	Name        string  `json:"name"`
	WindowCount int64   `json:"window_count"`
	PerSecond   float64 `json:"per_second"`
	Total       int64   `json:"total"`
}

// HistSnapshot is one Hist in a Snapshot: rolling window percentiles plus
// the cumulative view for reconciliation.
type HistSnapshot struct {
	Name        string  `json:"name"`
	WindowCount int64   `json:"window_count"`
	P50Ps       float64 `json:"p50_ps"`
	P95Ps       float64 `json:"p95_ps"`
	P99Ps       float64 `json:"p99_ps"`
	MaxPs       int64   `json:"max_ps"`
	TotalCount  int64   `json:"total_count"`
	TotalP99Ps  float64 `json:"total_p99_ps"`
}

// Snapshot is an immutable, JSON-serializable view of a Windows domain at
// one instant, suitable for publication to concurrent readers (/live).
type Snapshot struct {
	NowPs    int64          `json:"now_ps"`
	WindowPs int64          `json:"window_ps"`
	BucketPs int64          `json:"bucket_ps"`
	Rates    []RateSnapshot `json:"rates,omitempty"`
	Hists    []HistSnapshot `json:"hists,omitempty"`
}

// Snapshot advances to nowPs and captures every registered metric, sorted
// by name. Call it from the simulation goroutine (typically at rotation or
// run boundaries) and hand the result to concurrent readers. Returns nil
// on a nil domain.
func (w *Windows) Snapshot(nowPs int64) *Snapshot {
	if w == nil {
		return nil
	}
	w.Advance(nowPs)
	snap := &Snapshot{NowPs: nowPs, WindowPs: w.windowPs, BucketPs: w.bucketPs}
	// Effective span: the window may not be full yet at run start.
	span := w.windowPs
	if elapsed := nowPs - w.firstPs; w.started && elapsed >= 0 && elapsed+w.bucketPs < span {
		span = elapsed + w.bucketPs // partial window: count the current bucket
	}
	for _, r := range w.rates {
		c := r.WindowCount()
		snap.Rates = append(snap.Rates, RateSnapshot{
			Name:        r.name,
			WindowCount: c,
			PerSecond:   float64(c) * 1e12 / float64(span),
			Total:       r.total,
		})
	}
	for _, h := range w.hists {
		win, cum := h.Window(), h.Cumulative()
		snap.Hists = append(snap.Hists, HistSnapshot{
			Name:        h.name,
			WindowCount: win.Count(),
			P50Ps:       win.Percentile(0.50),
			P95Ps:       win.Percentile(0.95),
			P99Ps:       win.Percentile(0.99),
			MaxPs:       win.MaxValue(),
			TotalCount:  cum.Count(),
			TotalP99Ps:  cum.Percentile(0.99),
		})
	}
	sort.Slice(snap.Rates, func(i, j int) bool { return snap.Rates[i].Name < snap.Rates[j].Name })
	sort.Slice(snap.Hists, func(i, j int) bool { return snap.Hists[i].Name < snap.Hists[j].Name })
	return snap
}
