package window

import (
	"math/rand"
	"testing"

	"assasin/internal/telemetry"
)

const (
	ms = int64(1_000_000_000)
	us = int64(1_000_000)
)

func TestRotationEvictsOldBuckets(t *testing.T) {
	w := New(Config{WindowPs: 10 * ms, Buckets: 10}) // 1 ms buckets
	r := w.Rate("req")
	for i := int64(0); i < 10; i++ {
		r.Add(i*ms, 1) // one event per bucket
	}
	if got := r.WindowCount(); got != 10 {
		t.Fatalf("full window count = %d, want 10", got)
	}
	// Advancing 3 buckets evicts the 3 oldest.
	w.Advance(12*ms + 1)
	if got := r.WindowCount(); got != 7 {
		t.Fatalf("count after 3 rotations = %d, want 7", got)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("total = %d, want 10 (cumulative never resets)", got)
	}
	// A gap longer than the window clears everything.
	w.Advance(100 * ms)
	if got := r.WindowCount(); got != 0 {
		t.Fatalf("count after long gap = %d, want 0", got)
	}
}

func TestRateLastSpans(t *testing.T) {
	w := New(Config{WindowPs: 10 * ms, Buckets: 10})
	r := w.Rate("req")
	for i := int64(0); i < 10; i++ {
		r.Add(i*ms, i+1) // bucket i holds i+1 events
	}
	// The current bucket is 9, still filling. Trailing 3 ms of closed
	// buckets = buckets 6, 7, 8 -> 7+8+9.
	if got := r.LastClosed(3 * ms); got != 24 {
		t.Fatalf("LastClosed(3ms) = %d, want 24", got)
	}
	// Sub-bucket spans round up to one bucket: the last closed one.
	if got := r.LastClosed(1); got != 9 {
		t.Fatalf("LastClosed(1ps) = %d, want 9 (bucket 8)", got)
	}
	// Oversized spans clamp to the closed part of the window.
	if got, want := r.LastClosed(100*ms), r.WindowCount()-10; got != want {
		t.Fatalf("LastClosed(100ms) = %d, want %d", got, want)
	}
}

func TestHistWindowPercentiles(t *testing.T) {
	w := New(Config{WindowPs: 10 * ms, Buckets: 10})
	h := w.Hist("lat")
	// Old bucket: slow samples that must leave the window.
	for i := 0; i < 100; i++ {
		h.Observe(0, 80*us)
	}
	// Recent buckets: fast samples.
	for i := 0; i < 100; i++ {
		h.Observe(9*ms, 10*us)
	}
	win := h.Window()
	if win.Count() != 200 {
		t.Fatalf("window count = %d, want 200", win.Count())
	}
	if p := win.Percentile(0.99); p != float64(80*us) {
		t.Fatalf("P99 with slow bucket in window = %v, want %v", p, 80*us)
	}
	// Rotate the slow bucket out: the rolling P99 drops, the cumulative
	// P99 does not.
	w.Advance(10 * ms)
	win = h.Window()
	if win.Count() != 100 {
		t.Fatalf("window count after eviction = %d, want 100", win.Count())
	}
	if p := win.Percentile(0.99); p != float64(10*us) {
		t.Fatalf("rolling P99 after eviction = %v, want %v", p, 10*us)
	}
	if c := h.Cumulative(); c.Count() != 200 || c.Percentile(0.99) != float64(80*us) {
		t.Fatalf("cumulative count/P99 = %d/%v, want 200/%v", c.Count(), c.Percentile(0.99), 80*us)
	}
}

func TestOnRotateBoundaries(t *testing.T) {
	w := New(Config{WindowPs: 10 * ms, Buckets: 10})
	var fired []int64
	w.OnRotate = func(b int64) { fired = append(fired, b) }
	w.Advance(0) // first tick establishes the clock, no rotation
	if len(fired) != 0 {
		t.Fatalf("rotation fired on first tick: %v", fired)
	}
	w.Advance(3*ms + 500*us)
	if len(fired) != 3 || fired[0] != ms || fired[1] != 2*ms || fired[2] != 3*ms {
		t.Fatalf("boundaries = %v, want [1ms 2ms 3ms]", fired)
	}
	// A gap far beyond the window fires at most Buckets callbacks (the
	// boundaries still inside the new window).
	fired = nil
	w.Advance(1000 * ms)
	if len(fired) != 10 {
		t.Fatalf("rotations after long gap = %d, want 10", len(fired))
	}
	if fired[len(fired)-1] != 1000*ms {
		t.Fatalf("last boundary = %d, want %d", fired[len(fired)-1], 1000*ms)
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	build := func() *Snapshot {
		w := New(Config{WindowPs: 10 * ms, Buckets: 10})
		rb := w.Rate("b")
		ra := w.Rate("a")
		h := w.Hist("lat")
		for i := int64(0); i < 100; i++ {
			ra.Inc(i * 100 * us)
			rb.Add(i*100*us, 2)
			h.Observe(i*100*us, 25*us)
		}
		return w.Snapshot(10 * ms)
	}
	a, b := build(), build()
	if a.Rates[0].Name != "a" || a.Rates[1].Name != "b" {
		t.Fatalf("rates not sorted: %+v", a.Rates)
	}
	if a.Rates[0].PerSecond <= 0 {
		t.Fatalf("per-second rate = %v, want > 0", a.Rates[0].PerSecond)
	}
	if len(a.Hists) != 1 || a.Hists[0].P99Ps != float64(25*us) {
		t.Fatalf("hist snapshot = %+v", a.Hists)
	}
	if a.Rates[0] != b.Rates[0] || a.Hists[0] != b.Hists[0] {
		t.Fatalf("snapshots differ between identical runs:\n%+v\n%+v", a, b)
	}
}

func TestNilWindowsZeroCost(t *testing.T) {
	var w *Windows
	r := w.Rate("x")
	h := w.Hist("z")
	if r != nil || h != nil {
		t.Fatal("nil domain must return nil metrics")
	}
	allocs := testing.AllocsPerRun(100, func() {
		w.Advance(123)
		r.Add(123, 1)
		r.Inc(456)
		h.Observe(123, 55)
		_ = r.WindowCount()
		_ = r.LastClosed(10)
		_ = r.Total()
		_ = h.Window()
		_ = h.Cumulative()
		_ = w.Snapshot(123)
	})
	if allocs != 0 {
		t.Fatalf("nil-domain ops allocate %v allocs/op, want 0", allocs)
	}
}

// TestWindowTickZeroAlloc pins the enabled steady-state contract driven by
// the alloc-gate: rotation ticks, counter adds, and histogram observes on a
// live window domain allocate nothing once constructed.
func TestWindowTickZeroAlloc(t *testing.T) {
	w := New(Config{WindowPs: 10 * ms, Buckets: 20})
	r := w.Rate("req")
	h := w.Hist("lat")
	w.OnRotate = func(int64) {
		_ = r.LastClosed(2 * ms) // a burn-rate read at every rotation
	}
	now := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 137 * us // crosses bucket boundaries regularly
		w.Advance(now)
		r.Inc(now)
		h.Observe(now, 42*us)
	})
	if allocs != 0 {
		t.Fatalf("window steady state allocates %v allocs/op, want 0", allocs)
	}
}

// TestCachedSlotMatchesEpoch pins the cached ring index against its
// definition, epoch % n: after the first Advance, across single-bucket
// rotations, and across jumps longer than the ring.
func TestCachedSlotMatchesEpoch(t *testing.T) {
	w := New(Config{WindowPs: 7 * ms, Buckets: 7}) // 1 ms buckets, odd ring
	check := func(when string) {
		t.Helper()
		if want := int(w.epoch % int64(w.n)); w.slot() != want {
			t.Fatalf("%s: slot = %d, want epoch %d %% %d = %d", when, w.slot(), w.epoch, w.n, want)
		}
	}
	w.Advance(12*ms + 3) // first Advance starts mid-stream, epoch 12
	check("first advance")
	for i := int64(13); i < 30; i++ {
		w.Advance(i * ms)
		check("single rotation")
	}
	for _, jump := range []int64{8, 15, 100, 7} {
		w.Advance((w.epoch + jump) * ms)
		check("long jump")
	}
}

// TestHistCumulativeExact checks Cumulative, the folded buckets plus the
// live ring, against one histogram fed every sample: bucket counts, count,
// sum, min and max. The clock steps inside a bucket, across one boundary
// and past the whole ring, and samples include 0 and negative values.
func TestHistCumulativeExact(t *testing.T) {
	w := New(Config{WindowPs: 5 * ms, Buckets: 5})
	h := w.Hist("lat")
	var want telemetry.Histogram
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	for i := 0; i < 3000; i++ {
		switch rng.Intn(20) {
		case 0:
			now += int64(rng.Intn(12)) * ms // may clear the whole ring
		default:
			now += int64(rng.Intn(300)) * us
		}
		v := int64(rng.Intn(1<<20)) - 1000
		h.Observe(now, v)
		want.Observe(v)
		if i%97 == 0 || i == 2999 {
			if got := h.Cumulative(); *got != want {
				t.Fatalf("sample %d: Cumulative = %+v, want %+v", i, *got, want)
			}
		}
	}
}
