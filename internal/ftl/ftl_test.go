package ftl

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"assasin/internal/flash"
)

func smallArray() *flash.Array {
	cfg := flash.DefaultConfig()
	cfg.Channels = 4
	cfg.ChipsPerChannel = 2
	cfg.BlocksPerChip = 8
	cfg.PagesPerBlock = 8
	cfg.PageSize = 256
	return flash.New(cfg)
}

func pageData(lpa int) []byte {
	d := make([]byte, 256)
	for i := range d {
		d[i] = byte(lpa + i)
	}
	return d
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := New(smallArray(), nil)
	for lpa := 0; lpa < 20; lpa++ {
		if _, _, err := f.Write(0, lpa, pageData(lpa)); err != nil {
			t.Fatal(err)
		}
	}
	for lpa := 0; lpa < 20; lpa++ {
		got, _, err := f.Read(0, lpa)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pageData(lpa)) {
			t.Fatalf("lpa %d data mismatch", lpa)
		}
	}
}

func TestOverwriteInvalidatesOld(t *testing.T) {
	f := New(smallArray(), nil)
	f.Write(0, 5, pageData(1))
	old, _ := f.Lookup(5)
	f.Write(0, 5, pageData(2))
	now, _ := f.Lookup(5)
	if old == now {
		t.Fatal("overwrite did not remap")
	}
	got, _, _ := f.Read(0, 5)
	if !bytes.Equal(got, pageData(2)) {
		t.Fatal("read returned stale data")
	}
}

func TestUnmappedRead(t *testing.T) {
	f := New(smallArray(), nil)
	if _, _, err := f.Read(0, 3); err == nil {
		t.Fatal("unmapped read succeeded")
	}
	if _, ok := f.Lookup(3); ok {
		t.Fatal("unmapped lookup ok")
	}
}

func TestStripedPolicyBalances(t *testing.T) {
	f := New(smallArray(), StripedPolicy{})
	n := 64
	lpas := make([]int, n)
	for i := 0; i < n; i++ {
		lpas[i] = i
		if err := f.Install(i, pageData(i)); err != nil {
			t.Fatal(err)
		}
	}
	counts := f.ChannelPageCounts(lpas)
	for ch, c := range counts {
		if c != n/4 {
			t.Fatalf("channel %d has %d pages, want %d", ch, c, n/4)
		}
	}
	if s := f.Skew(lpas); s != 0 {
		t.Fatalf("striped skew = %g, want 0", s)
	}
}

func TestSkewedPolicyExtremes(t *testing.T) {
	// Skew=1: everything on channel 0.
	f := New(smallArray(), SkewedPolicy{Skew: 1})
	lpas := make([]int, 40)
	for i := range lpas {
		lpas[i] = i
		if err := f.Install(i, pageData(i)); err != nil {
			t.Fatal(err)
		}
	}
	counts := f.ChannelPageCounts(lpas)
	if counts[0] != 40 {
		t.Fatalf("skew=1 counts = %v", counts)
	}
	if s := f.Skew(lpas); s < 0.99 {
		t.Fatalf("skew metric = %g, want 1", s)
	}
}

func TestSkewedPolicyIntermediate(t *testing.T) {
	arr := flash.DefaultConfig()
	arr.Channels = 8
	arr.BlocksPerChip = 64
	arr.PagesPerBlock = 16
	arr.PageSize = 64
	f := New(flash.New(arr), SkewedPolicy{Skew: 0.5})
	n := 4000
	lpas := make([]int, n)
	for i := range lpas {
		lpas[i] = i
		if err := f.Install(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Skew(lpas)
	if s < 0.4 || s > 0.6 {
		t.Fatalf("skew metric = %g, want ~0.5", s)
	}
}

func TestGarbageCollectionReclaims(t *testing.T) {
	f := New(smallArray(), nil)
	// Hammer a small LPA range so most pages invalidate quickly, forcing GC.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		lpa := rng.Intn(16)
		if _, _, err := f.Write(0, lpa, pageData(lpa)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st := f.Stats()
	if st.GCInvocations == 0 || st.Erases == 0 {
		t.Fatalf("GC never ran: %+v", st)
	}
	if wa := float64(st.HostWrites+st.GCWrites) / float64(st.HostWrites); wa < 1 || wa > 3 {
		t.Fatalf("write amplification %g out of sane range", wa)
	}
	// Data integrity after heavy GC.
	for lpa := 0; lpa < 16; lpa++ {
		if _, ok := f.Lookup(lpa); !ok {
			continue
		}
		got, _, err := f.Read(0, lpa)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pageData(lpa)) {
			t.Fatalf("lpa %d corrupted after GC", lpa)
		}
	}
}

// TestMappingInvariants property-checks that after random traffic the
// mapping is a partial injection: no two LPAs share a physical page.
func TestMappingInvariants(t *testing.T) {
	f := New(smallArray(), nil)
	rng := rand.New(rand.NewSource(2))
	live := map[int][]byte{}
	for i := 0; i < 1500; i++ {
		lpa := rng.Intn(32)
		d := pageData(rng.Intn(1000))
		if _, _, err := f.Write(0, lpa, d); err != nil {
			t.Fatal(err)
		}
		live[lpa] = d
	}
	seen := map[string]int{}
	for lpa := range live {
		ppa, ok := f.Lookup(lpa)
		if !ok {
			t.Fatalf("live lpa %d unmapped", lpa)
		}
		key := ppa.String()
		if prev, dup := seen[key]; dup {
			t.Fatalf("ppa %v mapped from both %d and %d", ppa, prev, lpa)
		}
		seen[key] = lpa
		got, _, err := f.Read(0, lpa)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, live[lpa]) {
			t.Fatalf("lpa %d returned wrong data", lpa)
		}
	}
}

func TestWearLeveling(t *testing.T) {
	f := New(smallArray(), nil)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		if _, _, err := f.Write(0, rng.Intn(16), pageData(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Erase counts within each chip should be within a moderate band.
	arr := f.Array()
	cfg := arr.Config()
	for c := 0; c < cfg.Channels; c++ {
		for d := 0; d < cfg.ChipsPerChannel; d++ {
			var min, max int64 = 1 << 60, 0
			for b := 0; b < cfg.BlocksPerChip; b++ {
				e := arr.EraseCount(c, d, b)
				if e < min {
					min = e
				}
				if e > max {
					max = e
				}
			}
			if max > 0 && max-min > max/2+4 {
				t.Fatalf("wear imbalance on ch%d/chip%d: min=%d max=%d", c, d, min, max)
			}
		}
	}
}

func TestCapacityBound(t *testing.T) {
	f := New(smallArray(), nil)
	if _, _, err := f.Write(0, f.UserPages(), nil); err == nil {
		t.Fatal("write beyond capacity accepted")
	}
	if _, _, err := f.Write(0, -1, nil); err == nil {
		t.Fatal("negative lpa accepted")
	}
}

func TestInstallMatchesWriteSemantics(t *testing.T) {
	f := New(smallArray(), nil)
	if err := f.Install(7, pageData(7)); err != nil {
		t.Fatal(err)
	}
	got, _, err := f.Read(0, 7)
	if err != nil || !bytes.Equal(got, pageData(7)) {
		t.Fatal("installed page not readable")
	}
	// Install must not consume simulated channel time.
	if f.Array().ChannelBusy(0) != 0 && f.Array().ChannelBusy(1) != 0 &&
		f.Array().ChannelBusy(2) != 0 && f.Array().ChannelBusy(3) != 0 {
		t.Fatal("install consumed bus time")
	}
}

func TestFillDriveSequential(t *testing.T) {
	f := New(smallArray(), nil)
	n := f.UserPages()
	for lpa := 0; lpa < n; lpa++ {
		if err := f.Install(lpa, nil); err != nil {
			t.Fatalf("install %d/%d: %v", lpa, n, err)
		}
	}
	// Everything mapped.
	for lpa := 0; lpa < n; lpa++ {
		if _, ok := f.Lookup(lpa); !ok {
			t.Fatalf("lpa %d unmapped after fill", lpa)
		}
	}
}

func TestSkewMetricFormula(t *testing.T) {
	f := New(smallArray(), nil)
	_ = f
	cases := []struct {
		counts []int
		want   float64
	}{
		{[]int{10, 10, 10, 10}, 0},
		{[]int{40, 0, 0, 0}, 1},
		{[]int{25, 5, 5, 5}, (4.0 / 3.0) * (25.0/40.0 - 0.25)},
	}
	for _, c := range cases {
		got := skewOf(c.counts)
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("skew(%v) = %g, want %g", c.counts, got, c.want)
		}
	}
}

// skewOf mirrors FTL.Skew for direct formula testing.
func skewOf(counts []int) float64 {
	n := float64(len(counts))
	total, max := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	return (n / (n - 1)) * (float64(max)/float64(total) - 1/n)
}

func ExampleFTL_Skew() {
	arr := flash.DefaultConfig()
	arr.Channels = 4
	arr.BlocksPerChip = 8
	arr.PagesPerBlock = 8
	arr.PageSize = 64
	f := New(flash.New(arr), SkewedPolicy{Skew: 1})
	lpas := []int{0, 1, 2, 3}
	for _, lpa := range lpas {
		f.Install(lpa, nil)
	}
	fmt.Printf("skew=%.1f\n", f.Skew(lpas))
	// Output: skew=1.0
}

// TestGCPinnedStats drives an overwrite-heavy sequence onto one chip (a
// one-channel, one-chip array) so collect runs hundreds of times and
// migrates live pages, then checks that every LPA reads back its latest data
// and that the activity counters equal values pinned from the chunked p2l
// implementation: a change to the mapping structures must not change which
// pages GC migrates or when it erases.
func TestGCPinnedStats(t *testing.T) {
	cfg := flash.DefaultConfig()
	cfg.Channels = 1
	cfg.ChipsPerChannel = 1
	cfg.BlocksPerChip = 16
	cfg.PagesPerBlock = 8
	cfg.PageSize = 256
	f := New(flash.New(cfg), nil)
	rng := rand.New(rand.NewSource(3))
	live := map[int][]byte{}
	for i := 0; i < 3000; i++ {
		lpa := rng.Intn(32)
		d := pageData(i)
		if _, _, err := f.Write(0, lpa, d); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		live[lpa] = d
	}
	for lpa, want := range live {
		got, _, err := f.Read(0, lpa)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lpa %d does not read back its latest data", lpa)
		}
	}
	want := Stats{HostWrites: 3000, GCWrites: 2, Erases: 363, GCInvocations: 363}
	if got := f.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestL2PDecodeRoundTrip stores every physical page of a geometry with no
// power-of-two dimension and checks l2pAt decodes each packed index back
// to the page ppaIndex packed.
func TestL2PDecodeRoundTrip(t *testing.T) {
	cfg := flash.DefaultConfig()
	cfg.Channels = 3
	cfg.ChipsPerChannel = 5
	cfg.BlocksPerChip = 7
	cfg.PagesPerBlock = 6
	cfg.PageSize = 256
	f := New(flash.New(cfg), nil)
	lpa := 0
	for ch := 0; ch < cfg.Channels; ch++ {
		for chip := 0; chip < cfg.ChipsPerChannel; chip++ {
			for b := 0; b < cfg.BlocksPerChip; b++ {
				for pg := 0; pg < cfg.PagesPerBlock; pg++ {
					want := flash.PPA{Channel: ch, Chip: chip, Block: b, Page: pg}
					f.l2pSet(lpa, want)
					if got := f.l2pAt(lpa); got != want {
						t.Fatalf("lpa %d: l2pAt = %v, stored %v", lpa, got, want)
					}
					lpa++
				}
			}
		}
	}
	if got := f.l2pAt(lpa); got.Page >= 0 {
		t.Fatalf("unmapped lpa %d decodes to %v", lpa, got)
	}
}
