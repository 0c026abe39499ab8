// Package ftl implements the flash translation layer: page-level
// logical-to-physical mapping, write allocation with pluggable placement
// policies, garbage collection, and erase-count-aware (wear-leveling) block
// selection.
//
// A key architectural point of the paper is that ASSASIN's crossbar leaves
// the FTL completely independent — no computational-storage-aware placement
// is needed. This FTL is therefore a conventional one: the default policy
// stripes logical pages across channels for storage performance, exactly
// what MQSim's FTL does in the paper's scalability experiment (Fig. 18).
// A skewed policy exists to *construct* the uneven layouts of the Fig. 19
// sensitivity study.
package ftl

import (
	"fmt"

	"assasin/internal/flash"
	"assasin/internal/sim"
	"assasin/internal/telemetry"
)

// Policy chooses the target channel for a logical page write.
type Policy interface {
	// Channel returns the channel for lpa given n channels.
	Channel(lpa, n int) int
	// Name labels the policy.
	Name() string
}

// StripedPolicy round-robins logical pages across channels — the
// conventional bandwidth-maximizing layout.
type StripedPolicy struct{}

// Channel implements Policy.
func (StripedPolicy) Channel(lpa, n int) int { return lpa % n }

// Name implements Policy.
func (StripedPolicy) Name() string { return "striped" }

// SkewedPolicy concentrates a fraction Skew of logical pages on channel 0
// and stripes the remainder, giving channel 0 the share
// Skew + (1-Skew)/n — the layout-skew knob of the paper's Fig. 19
// (Skew 0 = balanced, 1 = everything on one channel).
type SkewedPolicy struct {
	Skew float64
}

// Channel implements Policy. The skewed subset is selected by a hash so hot
// pages interleave with striped ones along the logical address space.
func (p SkewedPolicy) Channel(lpa, n int) int {
	// Fibonacci hash to [0,1).
	h := uint32(lpa) * 2654435761
	if float64(h)/float64(1<<32) < p.Skew {
		return 0
	}
	return lpa % n
}

// Name implements Policy.
func (p SkewedPolicy) Name() string { return fmt.Sprintf("skewed(%.2f)", p.Skew) }

// blockID identifies an erase block within the array.
type blockID struct {
	channel, chip, block int
}

// blockState lives from nextSlot opening a block until collect erases it.
type blockState struct {
	valid int  // valid pages
	open  bool // currently receiving writes
	// lpa is the reverse map: the lpa programmed into each page, -1 once
	// invalidated; its length is the write pointer.
	lpa []int32
}

// pageChunk is the lazy-allocation unit of the L2P table (4-byte packed
// physical page indexes, 16 KiB per chunk). Devices hold hundreds of
// thousands of pages while most runs map a few thousand, so the FTL's
// memory is sized to the pages an offload writes: L2P chunks for touched
// logical regions, reverse maps only for opened blocks.
const pageChunk = 1 << 12

// freeBlocks is the free set of one (channel, chip) pair: a dense
// bool-per-block slice with a count, cheaper to build and scan than a map
// (chips have only a few hundred blocks). used stays nil until the chip's
// first block opens, so chips an offload never writes cost nothing.
type freeBlocks struct {
	used []bool
	n    int
}

// FTL is the flash translation layer over one flash.Array.
type FTL struct {
	arr    *flash.Array
	cfg    flash.Config
	policy Policy

	total int                 // device pages (logical and physical spaces)
	l2p   []*[pageChunk]int32 // chunked logical -> physical page index (ppaIndex); nil chunk or -1 means unmapped

	blocks map[blockID]*blockState
	// free blocks per (channel, chip)
	free [][]freeBlocks
	// openBlock per (channel, chip): the block receiving writes
	open [][]int

	// GCThreshold triggers collection when a (channel, chip) pair's free
	// block count drops to it.
	GCThreshold int

	// Tel, when non-nil, counts L2P translations; the cumulative Stats
	// (host/GC writes, erases, invocations) are published at snapshot time.
	Tel *Tel

	stats Stats
}

// Tel is the FTL telemetry bundle.
type Tel struct {
	Lookups *telemetry.Counter // successful L2P translations
}

// NewTel registers the FTL metrics on sink (nil sink -> nil Tel).
func NewTel(sink *telemetry.Sink) *Tel {
	if sink == nil {
		return nil
	}
	return &Tel{Lookups: sink.Counter("ftl", "lookups")}
}

// Stats counts FTL activity.
type Stats struct {
	HostWrites    int64 // pages written by the host/firmware
	GCWrites      int64 // pages migrated by garbage collection
	Erases        int64
	GCInvocations int64
}

// New returns an FTL over arr with the given placement policy. The maps
// hold 32-bit page indexes, so it panics on an array of 2^31 pages or more.
func New(arr *flash.Array, policy Policy) *FTL {
	cfg := arr.Config()
	if policy == nil {
		policy = StripedPolicy{}
	}
	total := arr.TotalPages()
	if total > 1<<31-1 {
		panic("ftl: flash array too large for 32-bit page indexes")
	}
	f := &FTL{
		arr:         arr,
		cfg:         cfg,
		policy:      policy,
		total:       total,
		l2p:         make([]*[pageChunk]int32, (total+pageChunk-1)/pageChunk),
		blocks:      make(map[blockID]*blockState),
		GCThreshold: 2,
	}
	f.free = make([][]freeBlocks, cfg.Channels)
	f.open = make([][]int, cfg.Channels)
	for c := 0; c < cfg.Channels; c++ {
		f.free[c] = make([]freeBlocks, cfg.ChipsPerChannel)
		f.open[c] = make([]int, cfg.ChipsPerChannel)
		for d := 0; d < cfg.ChipsPerChannel; d++ {
			f.free[c][d].n = cfg.BlocksPerChip
			f.open[c][d] = -1
		}
	}
	return f
}

// l2pAt returns the mapping of lpa (Page < 0 when unmapped), decoding the
// packed physical page index.
func (f *FTL) l2pAt(lpa int) flash.PPA {
	c := f.l2p[lpa/pageChunk]
	if c == nil || c[lpa%pageChunk] < 0 {
		return flash.PPA{Page: -1}
	}
	// A packed index is below 2^31 (New checks), so it decodes in uint32:
	// three 32-bit divisions, each remainder a multiply-subtract.
	idx := uint32(c[lpa%pageChunk])
	perBlock := uint32(f.cfg.PagesPerBlock)
	perChip := uint32(f.cfg.BlocksPerChip) * perBlock
	perChannel := perChip * uint32(f.cfg.ChipsPerChannel)
	channel := idx / perChannel
	idx -= channel * perChannel
	chip := idx / perChip
	idx -= chip * perChip
	block := idx / perBlock
	return flash.PPA{Channel: int(channel), Chip: int(chip), Block: int(block), Page: int(idx - block*perBlock)}
}

// l2pSet stores the mapping of lpa, materializing its chunk.
func (f *FTL) l2pSet(lpa int, ppa flash.PPA) {
	ci := lpa / pageChunk
	c := f.l2p[ci]
	if c == nil {
		c = new([pageChunk]int32)
		for i := range c {
			c[i] = -1
		}
		f.l2p[ci] = c
	}
	c[lpa%pageChunk] = int32(f.ppaIndex(ppa))
}

// Array returns the underlying flash array.
func (f *FTL) Array() *flash.Array { return f.arr }

// Stats returns a copy of the counters.
func (f *FTL) Stats() Stats { return f.stats }

// UserPages returns the logical capacity in pages (with ~12.5%
// over-provisioning reserved for GC headroom).
func (f *FTL) UserPages() int { return f.arr.TotalPages() * 7 / 8 }

// Lookup returns the physical address of lpa.
func (f *FTL) Lookup(lpa int) (flash.PPA, bool) {
	if lpa < 0 || lpa >= f.total {
		return flash.PPA{}, false
	}
	if ppa := f.l2pAt(lpa); ppa.Page >= 0 {
		if f.Tel != nil {
			f.Tel.Lookups.Inc()
		}
		return ppa, true
	}
	return flash.PPA{}, false
}

func (f *FTL) ppaIndex(p flash.PPA) int {
	perChip := f.cfg.BlocksPerChip * f.cfg.PagesPerBlock
	perChannel := perChip * f.cfg.ChipsPerChannel
	return p.Channel*perChannel + p.Chip*perChip + p.Block*f.cfg.PagesPerBlock + p.Page
}

// pickFreeBlock selects the free block with the lowest erase count on
// (channel, chip) — the wear-leveling decision.
func (f *FTL) pickFreeBlock(channel, chip int) (int, error) {
	best := -1
	var bestWear int64
	fb := &f.free[channel][chip]
	if fb.used == nil {
		fb.used = make([]bool, f.cfg.BlocksPerChip)
	}
	for b, used := range fb.used {
		if used {
			continue
		}
		w := f.arr.EraseCount(channel, chip, b)
		if best == -1 || w < bestWear {
			best = b
			bestWear = w
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("ftl: no free block on ch%d/chip%d", channel, chip)
	}
	fb.used[best] = true
	fb.n--
	return best, nil
}

// nextSlot returns the PPA to program next on (channel, chip), opening a new
// block if needed.
func (f *FTL) nextSlot(channel, chip int) (flash.PPA, error) {
	ob := f.open[channel][chip]
	var st *blockState
	if ob >= 0 {
		st = f.blocks[blockID{channel, chip, ob}]
		if len(st.lpa) >= f.cfg.PagesPerBlock {
			st.open = false
			ob = -1
		}
	}
	if ob < 0 {
		b, err := f.pickFreeBlock(channel, chip)
		if err != nil {
			return flash.PPA{}, err
		}
		ob = b
		f.open[channel][chip] = b
		st = &blockState{open: true, lpa: make([]int32, 0, f.cfg.PagesPerBlock)}
		f.blocks[blockID{channel, chip, b}] = st
	}
	return flash.PPA{Channel: channel, Chip: chip, Block: ob, Page: len(st.lpa)}, nil
}

// chipForWrite spreads logical pages across a channel's chips by hash.
// A plain (lpa/channels)%chips round-robin leaves equal-sized sequential
// readers marching over the same chip row in lockstep, convoying on the
// 25 µs array-read time; hashing decorrelates concurrent streams, as
// arrival-order die striping does in a real FTL.
func (f *FTL) chipForWrite(channel, lpa int) int {
	h := uint32(lpa/f.cfg.Channels) * 2654435761
	return int(h>>16) % f.cfg.ChipsPerChannel
}

// Write programs a logical page at time at. It returns the bus-transfer
// completion (when the page has left the source buffer) and the program
// completion (when the data is durable). The array keeps data as the stored
// page, so the caller must never change it afterwards (flash.Array.Write).
// Old mappings are invalidated; GC runs when the target (channel, chip) runs
// low on free blocks, migrating each valid page by re-storing the sensed
// slice.
func (f *FTL) Write(at sim.Time, lpa int, data []byte) (busDone, progDone sim.Time, err error) {
	return f.write(at, lpa, data, false)
}

func (f *FTL) write(at sim.Time, lpa int, data []byte, gc bool) (busDone, progDone sim.Time, err error) {
	if lpa < 0 || lpa >= f.UserPages() {
		return 0, 0, fmt.Errorf("ftl: lpa %d out of capacity %d", lpa, f.UserPages())
	}
	channel := f.policy.Channel(lpa, f.cfg.Channels)
	chip := f.chipForWrite(channel, lpa)
	ppa, err := f.nextSlot(channel, chip)
	if err != nil {
		return 0, 0, err
	}
	busDone, progDone, err = f.arr.Write(at, ppa, data)
	if err != nil {
		return 0, 0, err
	}
	f.commitMapping(lpa, ppa)
	if gc {
		f.stats.GCWrites++
	} else {
		f.stats.HostWrites++
	}
	if f.free[channel][chip].n <= f.GCThreshold {
		if err := f.collect(at, channel, chip); err != nil {
			return 0, 0, err
		}
	}
	return busDone, progDone, nil
}

// Install maps and stores a logical page without consuming simulated time
// (dataset setup). Like Write, it keeps data as the stored page.
func (f *FTL) Install(lpa int, data []byte) error {
	if lpa < 0 || lpa >= f.UserPages() {
		return fmt.Errorf("ftl: lpa %d out of capacity %d", lpa, f.UserPages())
	}
	channel := f.policy.Channel(lpa, f.cfg.Channels)
	chip := f.chipForWrite(channel, lpa)
	ppa, err := f.nextSlot(channel, chip)
	if err != nil {
		return err
	}
	if err := f.arr.InstallPage(ppa, data); err != nil {
		return err
	}
	f.commitMapping(lpa, ppa)
	f.stats.HostWrites++
	return nil
}

// commitMapping maps lpa to ppa, the next page of its open block.
func (f *FTL) commitMapping(lpa int, ppa flash.PPA) {
	// Invalidate the old physical page.
	if old := f.l2pAt(lpa); old.Page >= 0 {
		if st := f.blocks[blockID{old.Channel, old.Chip, old.Block}]; st != nil {
			st.valid--
			st.lpa[old.Page] = -1
		}
	}
	f.l2pSet(lpa, ppa)
	st := f.blocks[blockID{ppa.Channel, ppa.Chip, ppa.Block}]
	st.lpa = append(st.lpa, int32(lpa))
	st.valid++
}

// Read returns the contents and completion time of a logical page read.
func (f *FTL) Read(at sim.Time, lpa int) ([]byte, sim.Time, error) {
	ppa, ok := f.Lookup(lpa)
	if !ok {
		return nil, 0, fmt.Errorf("ftl: read of unmapped lpa %d", lpa)
	}
	return f.arr.Read(at, ppa)
}

// collect performs greedy garbage collection on (channel, chip): it picks
// the closed block with the fewest valid pages, migrates them, and erases.
func (f *FTL) collect(at sim.Time, channel, chip int) error {
	f.stats.GCInvocations++
	victim := -1
	var victimState *blockState
	var victimWear int64
	for b := 0; b < f.cfg.BlocksPerChip; b++ {
		id := blockID{channel, chip, b}
		st := f.blocks[id]
		if st == nil || st.open || len(st.lpa) < f.cfg.PagesPerBlock {
			continue
		}
		wear := f.arr.EraseCount(channel, chip, b)
		// Greedy min-valid victim; equal-valid ties prefer the least-worn
		// block so erase cycles rotate across the whole chip.
		if victimState == nil || st.valid < victimState.valid ||
			(st.valid == victimState.valid && wear < victimWear) {
			victim = b
			victimState = st
			victimWear = wear
		}
	}
	if victim < 0 {
		return nil // nothing collectable yet
	}
	// Migrate valid pages. A migration write can run a nested collect that
	// erases (or reopens) the victim, so its state is looked up per page.
	id := blockID{channel, chip, victim}
	for pg := 0; pg < f.cfg.PagesPerBlock; pg++ {
		st := f.blocks[id]
		if st == nil || pg >= len(st.lpa) || st.lpa[pg] < 0 {
			continue
		}
		lpa := int(st.lpa[pg])
		data, _, err := f.arr.Read(at, flash.PPA{Channel: channel, Chip: chip, Block: victim, Page: pg})
		if err != nil {
			return fmt.Errorf("ftl: gc read: %w", err)
		}
		if _, _, err := f.write(at, lpa, data, true); err != nil {
			return fmt.Errorf("ftl: gc migrate: %w", err)
		}
	}
	if _, err := f.arr.Erase(at, channel, chip, victim); err != nil {
		return fmt.Errorf("ftl: gc erase: %w", err)
	}
	f.stats.Erases++
	delete(f.blocks, id)
	fb := &f.free[channel][chip]
	fb.used[victim] = false
	fb.n++
	return nil
}

// FreeBlocks returns the free-block count on (channel, chip).
func (f *FTL) FreeBlocks(channel, chip int) int { return f.free[channel][chip].n }

// ChannelPageCounts returns, for a set of logical pages, how many map to
// each channel — the D_i distribution of the skew study.
func (f *FTL) ChannelPageCounts(lpas []int) []int {
	counts := make([]int, f.cfg.Channels)
	for _, lpa := range lpas {
		if ppa, ok := f.Lookup(lpa); ok {
			counts[ppa.Channel]++
		}
	}
	return counts
}

// Skew computes the paper's layout-skew metric for a set of logical pages:
// Skew = (n/(n-1)) · (max_i(D_i)/ΣD_i − 1/n), which is 0 for a perfectly
// even layout and 1 when all data sits on one channel.
func (f *FTL) Skew(lpas []int) float64 {
	counts := f.ChannelPageCounts(lpas)
	n := float64(len(counts))
	total := 0
	max := 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 || n <= 1 {
		return 0
	}
	return (n / (n - 1)) * (float64(max)/float64(total) - 1/n)
}
