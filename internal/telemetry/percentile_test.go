package telemetry

import (
	"math"
	"testing"
)

func TestPercentileEmptyAndNil(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Percentile(0.5); got != 0 {
		t.Fatalf("nil histogram P50 = %v, want 0", got)
	}
	h := &Histogram{}
	if got := h.Percentile(0.99); got != 0 {
		t.Fatalf("empty histogram P99 = %v, want 0", got)
	}
}

func TestPercentileSingleValue(t *testing.T) {
	// All samples identical: every quantile must report that value exactly
	// (the in-bucket interpolation is clamped to the observed maximum).
	h := &Histogram{}
	for i := 0; i < 10; i++ {
		h.Observe(4) // bucket [4, 8)
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Percentile(q); got != 4 {
			t.Fatalf("P%v = %v, want 4", q*100, got)
		}
	}
}

func TestPercentileBucketBoundaries(t *testing.T) {
	// One sample per power of two: 1, 2, 4, 8 land in buckets 1..4
	// ([1,2), [2,4), [4,8), [8,16)).
	h := &Histogram{}
	for _, v := range []int64{1, 2, 4, 8} {
		h.Observe(v)
	}
	// q = 0 pins the low edge of the first non-empty bucket.
	if got := h.Percentile(0); got != 1 {
		t.Fatalf("P0 = %v, want 1", got)
	}
	// q = 1 pins the observed maximum, not the bucket's upper bound (16).
	if got := h.Percentile(1); got != 8 {
		t.Fatalf("P100 = %v, want 8", got)
	}
	// Rank 2 of 4 exhausts bucket [2,4) exactly: interpolation reaches the
	// bucket's upper boundary.
	if got := h.Percentile(0.5); got != 4 {
		t.Fatalf("P50 = %v, want 4 (upper boundary of [2,4))", got)
	}
	// Rank 3.8 of 4 sits 80% into bucket [8,16): 8 + 0.8*8 = 14.4, then
	// clamped to the max 8.
	if got := h.Percentile(0.95); got != 8 {
		t.Fatalf("P95 = %v, want 8 (clamped to max)", got)
	}
}

func TestPercentileInterpolatesWithinBucket(t *testing.T) {
	// 100 samples of 1000 and 100 of 3000: buckets [512,1024) and
	// [2048,4096). P25 is halfway through the first bucket's count:
	// 512 + 0.5*512 = 768, clamped up to the observed minimum 1000 (no
	// sample is smaller, so no quantile may report smaller).
	h := &Histogram{}
	for i := 0; i < 100; i++ {
		h.Observe(1000)
		h.Observe(3000)
	}
	if got := h.Percentile(0.25); got != 1000 {
		t.Fatalf("P25 = %v, want 1000 (clamped to min)", got)
	}
	// P60 lands 20% into the second bucket: 2048 + 0.2*2048 = 2457.6 —
	// inside [min, max], so interpolation is untouched.
	if got := h.Percentile(0.60); math.Abs(got-2457.6) > 0.01 {
		t.Fatalf("P60 = %v, want 2457.6", got)
	}
	// P75 is halfway through the second bucket: 2048 + 0.5*2048 = 3072,
	// clamped to the max 3000.
	if got := h.Percentile(0.75); got != 3000 {
		t.Fatalf("P75 = %v, want 3000", got)
	}
	// Out-of-range q values clamp to [0, 1].
	if got := h.Percentile(-3); got != h.Percentile(0) {
		t.Fatalf("q<0 = %v, want %v", got, h.Percentile(0))
	}
	if got := h.Percentile(7); got != h.Percentile(1) {
		t.Fatalf("q>1 = %v, want %v", got, h.Percentile(1))
	}
}

func TestPercentileZeroBucket(t *testing.T) {
	// Bucket 0 (v <= 0) collapses to the single value 0.
	h := &Histogram{}
	h.Observe(0)
	h.Observe(0)
	h.Observe(-5)
	if got := h.Percentile(0.5); got != 0 {
		t.Fatalf("P50 of zero bucket = %v, want 0", got)
	}
	h.Observe(16)
	if got := h.Percentile(0.5); got != 0 {
		t.Fatalf("P50 = %v, want 0 (3 of 4 samples are <= 0)", got)
	}
	if got := h.Percentile(1); got != 16 {
		t.Fatalf("P100 = %v, want 16", got)
	}
}

func TestPercentileTopBucketNoOverflow(t *testing.T) {
	// The topmost bucket's bounds exceed int64; float bucket math must not
	// overflow or go negative.
	h := &Histogram{}
	h.Observe(math.MaxInt64)
	got := h.Percentile(0.5)
	lo := math.Ldexp(1, 62) // MaxInt64 lands in bucket [2^62, 2^63)
	if math.IsNaN(got) || math.IsInf(got, 0) || got < lo || got > float64(math.MaxInt64) {
		t.Fatalf("P50 of MaxInt64 sample = %v, want within [%v, %v]", got, lo, float64(math.MaxInt64))
	}
	if h.Percentile(1) != float64(math.MaxInt64) {
		t.Fatalf("P100 = %v, want observed max", h.Percentile(1))
	}
}

func TestPercentileBoundaryQuantiles(t *testing.T) {
	// q=0 and q=1 must pin the observed extremes exactly, even when the
	// extremes sit mid-bucket.
	h := &Histogram{}
	for _, v := range []int64{100, 500, 900} { // buckets [64,128), [256,512), [512,1024)
		h.Observe(v)
	}
	if got := h.Percentile(0); got != 100 {
		t.Fatalf("P0 = %v, want observed min 100", got)
	}
	if got := h.Percentile(1); got != 900 {
		t.Fatalf("P100 = %v, want observed max 900", got)
	}
}

func TestHistogramResetAndAbsorb(t *testing.T) {
	var nilH *Histogram
	nilH.Reset()     // nil-safe no-ops
	nilH.Absorb(nil) //
	(&Histogram{}).Absorb(nilH)

	a, b := &Histogram{}, &Histogram{}
	for i := 0; i < 10; i++ {
		a.Observe(1000)
		b.Observe(3000)
	}
	merged := &Histogram{}
	merged.Absorb(a)
	merged.Absorb(b)
	if merged.Count() != 20 || merged.Sum() != a.Sum()+b.Sum() {
		t.Fatalf("merged count/sum = %d/%d, want 20/%d", merged.Count(), merged.Sum(), a.Sum()+b.Sum())
	}
	if merged.min != 1000 || merged.MaxValue() != 3000 {
		t.Fatalf("merged min/max = %d/%d, want 1000/3000", merged.min, merged.MaxValue())
	}
	if merged.Percentile(0) != 1000 || merged.Percentile(1) != 3000 {
		t.Fatalf("merged P0/P100 = %v/%v, want 1000/3000", merged.Percentile(0), merged.Percentile(1))
	}
	// Absorbing an empty histogram must not disturb min.
	merged.Absorb(&Histogram{})
	if merged.min != 1000 {
		t.Fatalf("min after empty absorb = %d, want 1000", merged.min)
	}
	a.Reset()
	if a.Count() != 0 || a.Sum() != 0 || a.min != 0 || a.MaxValue() != 0 || a.Percentile(0.5) != 0 {
		t.Fatalf("reset histogram not empty: %+v", a)
	}
	if got := len(a.Buckets()); got != 0 {
		t.Fatalf("reset histogram has %d bucket snapshots, want 0", got)
	}
}

func TestSnapshotCarriesPercentiles(t *testing.T) {
	s := NewSink()
	h := s.Histogram("q", "lat")
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	hs := s.Metrics().Histograms["q/lat"]
	if hs.P50 != h.Percentile(0.50) || hs.P95 != h.Percentile(0.95) || hs.P99 != h.Percentile(0.99) {
		t.Fatalf("snapshot percentiles %+v disagree with Histogram.Percentile", hs)
	}
	if hs.P50 == 0 {
		t.Fatalf("snapshot P50 = 0 for a non-empty histogram")
	}
}

// bucketOfLoop is the original bit-by-bit bucket rule, kept as the oracle
// for the bits.Len64 form.
func bucketOfLoop(v int64) int {
	if v <= 0 {
		return 0
	}
	b := 1
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

func TestBucketOfMatchesLoop(t *testing.T) {
	vals := []int64{0, -1, -2, math.MinInt64, 1, 2, math.MaxInt64}
	for k := 1; k < 63; k++ {
		p := int64(1) << k
		vals = append(vals, p-1, p, p+1, -p)
	}
	for _, v := range vals {
		if got, want := bucketOf(v), bucketOfLoop(v); got != want {
			t.Fatalf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
	if got := bucketOf(math.MaxInt64); got != 63 {
		t.Fatalf("bucketOf(MaxInt64) = %d, want 63", got)
	}
}
