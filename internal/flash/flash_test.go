package flash

import (
	"bytes"
	"testing"

	"assasin/internal/sim"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.ChipsPerChannel = 2
	cfg.BlocksPerChip = 4
	cfg.PagesPerBlock = 4
	cfg.PageSize = 512
	return cfg
}

func TestWriteReadRoundTrip(t *testing.T) {
	a := New(smallConfig())
	p := PPA{Channel: 0, Chip: 0, Block: 1, Page: 0}
	data := bytes.Repeat([]byte{0xAB}, 512)
	if _, _, err := a.Write(0, p, data); err != nil {
		t.Fatal(err)
	}
	got, done, err := a.Read(sim.Millisecond, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	if done <= sim.Millisecond {
		t.Fatal("read has no latency")
	}
}

func TestErasedPageReadsFF(t *testing.T) {
	a := New(smallConfig())
	got, _, err := a.Read(0, PPA{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0xFF {
			t.Fatal("erased page not 0xFF")
		}
	}
}

func TestProgramConstraints(t *testing.T) {
	a := New(smallConfig())
	p0 := PPA{Block: 2, Page: 0}
	p1 := PPA{Block: 2, Page: 1}
	// Out-of-order program rejected.
	if _, _, err := a.Write(0, p1, make([]byte, 16)); err == nil {
		t.Fatal("out-of-order program accepted")
	}
	if _, _, err := a.Write(0, p0, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	// Overwrite rejected.
	if _, _, err := a.Write(0, p0, make([]byte, 16)); err == nil {
		t.Fatal("overwrite of programmed page accepted")
	}
	// After the in-order predecessor, page 1 works.
	if _, _, err := a.Write(0, p1, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	a := New(smallConfig())
	p := PPA{Block: 0, Page: 0}
	a.Write(0, p, []byte{1, 2, 3})
	if _, err := a.Erase(0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	// The page reads back as the erased all-0xFF image.
	data, _, err := a.Sense(0, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{0xFF}, a.Config().PageSize)) {
		t.Fatalf("erased page reads %x..., want all 0xFF", data[:4])
	}
	if a.EraseCount(0, 0, 0) != 1 {
		t.Fatal("erase count wrong")
	}
	// Programmable again from page 0.
	if _, _, err := a.Write(0, p, []byte{9}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockTableGrowsWithWrites pins the lazy block table: it reaches the
// highest block touched, blocks past it read as erased and never erased,
// and a lower block can still be programmed.
func TestBlockTableGrowsWithWrites(t *testing.T) {
	a := New(smallConfig())
	if _, _, err := a.Write(0, PPA{Block: 2}, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if n := len(a.chips[0][0].blocks); n != 3 {
		t.Fatalf("block table has %d entries after a write to block 2, want 3", n)
	}
	data, _, err := a.Sense(0, PPA{Block: 3})
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0xFF || a.EraseCount(0, 0, 3) != 0 {
		t.Fatalf("untouched block 3 reads %#x with %d erases, want 0xff and 0", data[0], a.EraseCount(0, 0, 3))
	}
	if _, _, err := a.Write(0, PPA{Block: 0}, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Erase(0, 0, 0, 3); err != nil || a.EraseCount(0, 0, 3) != 1 {
		t.Fatalf("erase of block 3: err %v, count %d", err, a.EraseCount(0, 0, 3))
	}
}

func TestReadTimingChipAndBus(t *testing.T) {
	cfg := smallConfig()
	a := New(cfg)
	p := PPA{}
	a.Write(0, p, make([]byte, cfg.PageSize))
	at := 10 * sim.Millisecond // after program completes
	_, done, err := a.Read(at, p)
	if err != nil {
		t.Fatal(err)
	}
	transfer := sim.Time(float64(cfg.PageSize) / cfg.ChannelBandwidth * float64(sim.Second))
	want := at + cfg.ReadLatency + transfer
	if done != want {
		t.Fatalf("read done = %v, want %v", done, want)
	}
}

func TestChipInterleavingHidesTR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	a := New(cfg)
	// Write one block's worth on each of the 4 chips of channel 0.
	for chip := 0; chip < cfg.ChipsPerChannel; chip++ {
		for pg := 0; pg < cfg.PagesPerBlock; pg++ {
			if _, _, err := a.Write(0, PPA{Chip: chip, Block: 0, Page: pg}, make([]byte, cfg.PageSize)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Stream reads round-robin across chips: the channel bus should be the
	// bottleneck, i.e. aggregate throughput ≈ channel bandwidth.
	at := sim.Time(10 * sim.Second)
	start := at
	n := 0
	var done sim.Time
	for pg := 0; pg < cfg.PagesPerBlock; pg++ {
		for chip := 0; chip < cfg.ChipsPerChannel; chip++ {
			_, d, err := a.Read(at, PPA{Chip: chip, Block: 0, Page: pg})
			if err != nil {
				t.Fatal(err)
			}
			done = d
			n++
		}
	}
	elapsed := done - start
	bytesRead := float64(n * cfg.PageSize)
	throughput := bytesRead / elapsed.Seconds()
	if throughput < 0.9*cfg.ChannelBandwidth {
		t.Fatalf("interleaved throughput %.2e B/s, want ~%.2e", throughput, cfg.ChannelBandwidth)
	}
}

func TestSingleChipBoundByTR(t *testing.T) {
	cfg := DefaultConfig()
	a := New(cfg)
	for pg := 0; pg < cfg.PagesPerBlock; pg++ {
		a.Write(0, PPA{Block: 0, Page: pg}, make([]byte, cfg.PageSize))
	}
	at := sim.Time(100 * sim.Second)
	var done sim.Time
	for pg := 0; pg < 8; pg++ {
		_, d, _ := a.Read(at, PPA{Block: 0, Page: pg})
		done = d
	}
	elapsed := done - at
	// Back-to-back single-chip reads serialize on tR.
	if elapsed < 8*cfg.ReadLatency {
		t.Fatalf("single-chip reads too fast: %v", elapsed)
	}
}

func TestChannelIndependence(t *testing.T) {
	cfg := smallConfig()
	a := New(cfg)
	a.Write(0, PPA{Channel: 0}, make([]byte, cfg.PageSize))
	a.Write(0, PPA{Channel: 1}, make([]byte, cfg.PageSize))
	at := sim.Time(sim.Second)
	_, d0, _ := a.Read(at, PPA{Channel: 0})
	_, d1, _ := a.Read(at, PPA{Channel: 1})
	if d0 != d1 {
		t.Fatalf("parallel channels interfere: %v vs %v", d0, d1)
	}
	if a.ChannelBytes(0) == 0 || a.ChannelBytes(1) == 0 {
		t.Fatal("channel byte accounting missing")
	}
}

func TestValidation(t *testing.T) {
	a := New(smallConfig())
	bad := []PPA{
		{Channel: -1}, {Channel: 99}, {Chip: 99}, {Block: 99}, {Page: 99},
	}
	for _, p := range bad {
		if _, _, err := a.Read(0, p); err == nil {
			t.Errorf("Read(%v) accepted", p)
		}
	}
	if _, _, err := a.Write(0, PPA{}, make([]byte, 1<<20)); err == nil {
		t.Error("oversized write accepted")
	}
}

func TestTotals(t *testing.T) {
	cfg := smallConfig()
	a := New(cfg)
	if a.TotalPages() != 2*2*4*4 {
		t.Errorf("TotalPages = %d", a.TotalPages())
	}
	if a.TotalBandwidth() != 2*cfg.ChannelBandwidth {
		t.Errorf("TotalBandwidth = %g", a.TotalBandwidth())
	}
}

// TestBlockPageTable pins a block's store: its page table holds only the
// pages programmed, in order, keeping a full page as handed over and
// zero-padding a short one into a fresh page; a read past them returns the
// all-0xFF page; Erase empties it and keeps counting erases; and the
// out-of-order and non-erased program errors read as before.
func TestBlockPageTable(t *testing.T) {
	a := New(smallConfig())
	ps := a.Config().PageSize
	full := bytes.Repeat([]byte{0xA5}, ps)
	if _, _, err := a.Write(0, PPA{Block: 1}, full); err != nil {
		t.Fatal(err)
	}
	if err := a.InstallPage(PPA{Block: 1, Page: 1}, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	bs := a.chips[0][0].block(1)
	if len(bs.data) != 2 {
		t.Fatalf("block holds %d pages after programming 2", len(bs.data))
	}
	if &bs.data[0][0] != &full[0] || len(bs.data[0]) != ps {
		t.Fatal("a full page was not kept as handed over")
	}
	short, _, _ := a.Sense(0, PPA{Block: 1, Page: 1})
	if len(short) != ps || !bytes.Equal(short[:3], []byte{1, 2, 3}) || !bytes.Equal(short[3:], make([]byte, ps-3)) {
		t.Fatalf("short page reads back %x..., want 010203 and zeros", short[:4])
	}
	if past, _, _ := a.Sense(0, PPA{Block: 1, Page: 2}); !bytes.Equal(past, bytes.Repeat([]byte{0xFF}, ps)) {
		t.Fatal("page past the programmed ones does not read all 0xFF")
	}

	_, _, err := a.Write(0, PPA{Block: 1, Page: 3}, full)
	if want := "flash: out-of-order program ch0/chip0/blk1/pg3 (next programmable page is 2)"; err == nil || err.Error() != want {
		t.Fatalf("out-of-order program: %v, want %q", err, want)
	}
	_, _, err = a.Write(0, PPA{Block: 1, Page: 1}, full)
	if want := "flash: program of non-erased page ch0/chip0/blk1/pg1"; err == nil || err.Error() != want {
		t.Fatalf("overwrite: %v, want %q", err, want)
	}

	for round := int64(1); round <= 2; round++ {
		if _, err := a.Erase(0, 0, 0, 1); err != nil {
			t.Fatal(err)
		}
		if len(bs.data) != 0 || a.EraseCount(0, 0, 1) != round {
			t.Fatalf("erase %d: block holds %d pages, count %d", round, len(bs.data), a.EraseCount(0, 0, 1))
		}
		if _, _, err := a.Write(0, PPA{Block: 1}, full); err != nil {
			t.Fatalf("erase %d: program page 0: %v", round, err)
		}
	}
}
