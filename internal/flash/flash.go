// Package flash models the SSD's NAND flash array: channels with shared
// buses (ONFI-style word-serial page transfer), chips with array read /
// program / erase latencies, and the functional page store. Timing follows
// the paper's evaluation configuration — 8 channels of 1 GB/s each, with
// chip-level interleaving hiding the array read time so the channel bus is
// the per-channel bound.
package flash

import (
	"fmt"

	"assasin/internal/sim"
	"assasin/internal/telemetry"
)

// Config is the array geometry and timing.
type Config struct {
	Channels        int
	ChipsPerChannel int
	BlocksPerChip   int
	PagesPerBlock   int
	PageSize        int
	// ChannelBandwidth is the page-transfer bandwidth of one channel bus in
	// bytes/second.
	ChannelBandwidth float64
	// ReadLatency (tR) is the array-to-page-register sense time.
	ReadLatency sim.Time
	// ProgramLatency (tProg) is the page program time.
	ProgramLatency sim.Time
	// EraseLatency (tBERS) is the block erase time.
	EraseLatency sim.Time
}

// DefaultConfig matches the paper's 8-channel, 1 GB/s-per-channel SSD with
// 16 KiB pages and typical TLC NAND latencies.
func DefaultConfig() Config {
	return Config{
		Channels:         8,
		ChipsPerChannel:  4,
		BlocksPerChip:    256,
		PagesPerBlock:    64,
		PageSize:         16 << 10,
		ChannelBandwidth: 1e9,
		ReadLatency:      40 * sim.Microsecond,
		ProgramLatency:   200 * sim.Microsecond,
		EraseLatency:     2 * sim.Millisecond,
	}
}

// PPA is a physical page address.
type PPA struct {
	Channel, Chip, Block, Page int
}

// String implements fmt.Stringer.
func (p PPA) String() string {
	return fmt.Sprintf("ch%d/chip%d/blk%d/pg%d", p.Channel, p.Chip, p.Block, p.Page)
}

// blockStore holds one erase block's programmed pages in program order:
// NAND programs a block's pages in order, so len(data) is the next
// programmable page and every page past it reads as erased. Blocks
// materialize independently and grow by the pages programmed, so the
// per-run footprint of a chip is proportional to the pages it actually
// holds, not its geometry.
type blockStore struct {
	data   [][]byte
	erases int64
}

type chip struct {
	nextFree sim.Time
	// blocks[block] is nil until that block is first programmed or erased,
	// and the table reaches only as far as the highest such block: a nil
	// or missing entry reads as "everything erased, counts zero", so
	// building an Array — or streaming a dataset over a few blocks of a
	// few chips — touches no per-page state outside those blocks.
	blocks []*blockStore
}

// block reads a block's store through the lazy table (nil = untouched).
func (ch *chip) block(b int) *blockStore {
	if b >= len(ch.blocks) {
		return nil
	}
	return ch.blocks[b]
}

// nextProgPage reads a block's next programmable page through the lazy
// table.
func (ch *chip) nextProgPage(block int) int {
	if bs := ch.block(block); bs != nil {
		return len(bs.data)
	}
	return 0
}

// materialize returns one block's store, building it on first mutation and
// growing the chip's block table to reach it.
func (ch *chip) materialize(block int) *blockStore {
	if block >= len(ch.blocks) {
		ch.blocks = append(ch.blocks, make([]*blockStore, block+1-len(ch.blocks))...)
	}
	bs := ch.blocks[block]
	if bs == nil {
		bs = &blockStore{}
		ch.blocks[block] = bs
	}
	return bs
}

// Array is the flash array: timing and functional content.
// Tel is the flash-array telemetry bundle: operation counts plus the bytes
// moved over channel buses. Per-channel busy time lives in the channel
// bandwidth servers and is published at snapshot time (ssd.PublishStats),
// not per access.
type Tel struct {
	Senses        *telemetry.Counter
	Transfers     *telemetry.Counter
	Programs      *telemetry.Counter
	Erases        *telemetry.Counter
	TransferBytes *telemetry.Counter
}

// NewTel registers the flash metrics on sink (nil sink -> nil Tel).
func NewTel(sink *telemetry.Sink) *Tel {
	if sink == nil {
		return nil
	}
	return &Tel{
		Senses:        sink.Counter("flash", "senses"),
		Transfers:     sink.Counter("flash", "transfers"),
		Programs:      sink.Counter("flash", "programs"),
		Erases:        sink.Counter("flash", "erases"),
		TransferBytes: sink.Counter("flash", "transfer_bytes"),
	}
}

type Array struct {
	cfg      Config
	channels []*sim.BandwidthServer
	chips    [][]*chip

	// erased is the shared all-0xFF page returned by Sense for erased
	// pages; like written pages, it is handed out by reference and must not
	// be mutated by callers (see Sense).
	erased []byte

	// Tel, when non-nil, counts senses/transfers/programs/erases.
	Tel *Tel
}

// New returns an erased array. Construction is O(channels × chips): all
// per-page state is materialized lazily on first program/erase, so building
// a large array for a small experiment costs almost nothing.
func New(cfg Config) *Array {
	a := &Array{cfg: cfg}
	a.channels = make([]*sim.BandwidthServer, cfg.Channels)
	a.chips = make([][]*chip, cfg.Channels)
	for c := 0; c < cfg.Channels; c++ {
		a.channels[c] = sim.NewBandwidthServer(fmt.Sprintf("flash-ch%d", c), cfg.ChannelBandwidth, 0)
		a.chips[c] = make([]*chip, cfg.ChipsPerChannel)
		for d := 0; d < cfg.ChipsPerChannel; d++ {
			a.chips[c][d] = &chip{}
		}
	}
	return a
}

// erasedPage returns the shared all-0xFF page image.
func (a *Array) erasedPage() []byte {
	if a.erased == nil {
		a.erased = make([]byte, a.cfg.PageSize)
		for i := range a.erased {
			a.erased[i] = 0xFF
		}
	}
	return a.erased
}

// program checks NAND's constraints for programming p — the target page
// must be erased, and a block's pages are programmed in order — and
// stores data there. The array keeps a full page as handed over; a short
// one is zero-padded into a fresh page.
func (a *Array) program(op string, p PPA, data []byte) error {
	if err := a.validate(p); err != nil {
		return err
	}
	if len(data) > a.cfg.PageSize {
		return fmt.Errorf("flash: %s of %d bytes exceeds page size %d", op, len(data), a.cfg.PageSize)
	}
	ch := a.chipAt(p)
	switch next := ch.nextProgPage(p.Block); {
	case p.Page < next:
		return fmt.Errorf("flash: %s of non-erased page %v", op, p)
	case p.Page > next:
		return fmt.Errorf("flash: out-of-order %s %v (next programmable page is %d)", op, p, next)
	}
	if len(data) < a.cfg.PageSize {
		padded := make([]byte, a.cfg.PageSize)
		copy(padded, data)
		data = padded
	}
	bs := ch.materialize(p.Block)
	bs.data = append(bs.data, data[:a.cfg.PageSize:a.cfg.PageSize])
	return nil
}

// Config returns the geometry.
func (a *Array) Config() Config { return a.cfg }

// TotalPages returns the page count of the whole array.
func (a *Array) TotalPages() int {
	return a.cfg.Channels * a.cfg.ChipsPerChannel * a.cfg.BlocksPerChip * a.cfg.PagesPerBlock
}

// TotalBandwidth returns the aggregate channel bandwidth in bytes/second.
func (a *Array) TotalBandwidth() float64 {
	return float64(a.cfg.Channels) * a.cfg.ChannelBandwidth
}

func (a *Array) validate(p PPA) error {
	if p.Channel < 0 || p.Channel >= a.cfg.Channels ||
		p.Chip < 0 || p.Chip >= a.cfg.ChipsPerChannel ||
		p.Block < 0 || p.Block >= a.cfg.BlocksPerChip ||
		p.Page < 0 || p.Page >= a.cfg.PagesPerBlock {
		return fmt.Errorf("flash: invalid ppa %v", p)
	}
	return nil
}

func (a *Array) chipAt(p PPA) *chip { return a.chips[p.Channel][p.Chip] }

// Sense performs the array-to-page-register read of one page (the tR
// phase), occupying the chip. It returns the page contents and the sense
// completion time; the bus transfer is issued separately with Transfer so
// the flash controller can gate it on downstream buffer space. Reading an
// erased page returns all-0xFF data, as real NAND does.
//
// The returned slice is the array's stored page itself (or, for erased
// pages, a shared all-0xFF image) — callers must treat it as read-only. The
// page pipeline relies on this: page bytes flow flash→crossbar→stream buffer
// by reference and are never copied, because a stored page never changes
// (Write and InstallPage keep pages their writers never touch again, Erase
// only drops references), so an input stream window holds the page itself
// and garbage collection re-stores it without a copy.
func (a *Array) Sense(at sim.Time, p PPA) ([]byte, sim.Time, error) {
	if err := a.validate(p); err != nil {
		return nil, 0, err
	}
	ch := a.chipAt(p)
	start := sim.MaxT(at, ch.nextFree)
	senseDone := start + a.cfg.ReadLatency
	ch.nextFree = senseDone
	if a.Tel != nil {
		a.Tel.Senses.Inc()
	}
	if bs := ch.block(p.Block); bs != nil && p.Page < len(bs.data) {
		return bs.data[p.Page], senseDone, nil
	}
	return a.erasedPage(), senseDone, nil
}

// Transfer moves size bytes (up to one page) over a channel bus at time at,
// returning the completion time.
func (a *Array) Transfer(at sim.Time, channel, size int) (sim.Time, error) {
	if channel < 0 || channel >= a.cfg.Channels {
		return 0, fmt.Errorf("flash: invalid channel %d", channel)
	}
	if size <= 0 || size > a.cfg.PageSize {
		return 0, fmt.Errorf("flash: invalid transfer size %d", size)
	}
	if a.Tel != nil {
		a.Tel.Transfers.Inc()
		a.Tel.TransferBytes.Add(int64(size))
	}
	return a.channels[channel].Access(at, size), nil
}

// Read senses and transfers one page — the convenience composition of Sense
// and Transfer used when buffer-space gating is not needed.
func (a *Array) Read(at sim.Time, p PPA) ([]byte, sim.Time, error) {
	data, senseDone, err := a.Sense(at, p)
	if err != nil {
		return nil, 0, err
	}
	done, err := a.Transfer(senseDone, p.Channel, a.cfg.PageSize)
	if err != nil {
		return nil, 0, err
	}
	return data, done, nil
}

// Write transfers and programs one page. It returns both the bus-transfer
// completion (when the page has left the source buffer) and the program
// completion (when the data is durable). NAND constraints are enforced: the
// target page must be erased and pages within a block must be programmed in
// order. The array keeps data as the stored page (a short one is
// zero-padded into a fresh page), so the caller hands it over and must
// never change it afterwards.
func (a *Array) Write(at sim.Time, p PPA, data []byte) (busDone, progDone sim.Time, err error) {
	if err := a.program("program", p, data); err != nil {
		return 0, 0, err
	}
	ch := a.chipAt(p)
	busDone = a.channels[p.Channel].Access(at, a.cfg.PageSize)
	start := sim.MaxT(busDone, ch.nextFree)
	progDone = start + a.cfg.ProgramLatency
	ch.nextFree = progDone
	if a.Tel != nil {
		a.Tel.Programs.Inc()
		a.Tel.TransferBytes.Add(int64(a.cfg.PageSize))
	}
	return busDone, progDone, nil
}

// Erase erases one block.
func (a *Array) Erase(at sim.Time, channel, chipIdx, block int) (sim.Time, error) {
	p := PPA{Channel: channel, Chip: chipIdx, Block: block}
	if err := a.validate(p); err != nil {
		return 0, err
	}
	ch := a.chips[channel][chipIdx]
	start := sim.MaxT(at, ch.nextFree)
	done := start + a.cfg.EraseLatency
	ch.nextFree = done
	bs := ch.materialize(block)
	clear(bs.data)
	bs.data = bs.data[:0]
	bs.erases++
	if a.Tel != nil {
		a.Tel.Erases.Inc()
	}
	return done, nil
}

// InstallPage stores page contents functionally without consuming simulated
// time — used to set up experiment datasets (the equivalent of the drive
// having been written in the past). NAND ordering constraints still apply,
// and the array keeps data as Write does: the caller must never change it
// afterwards.
func (a *Array) InstallPage(p PPA, data []byte) error {
	return a.program("install", p, data)
}

// EraseCount returns how many times a block has been erased.
func (a *Array) EraseCount(channel, chipIdx, block int) int64 {
	bs := a.chips[channel][chipIdx].block(block)
	if bs == nil {
		return 0
	}
	return bs.erases
}

// ChannelBytes returns the bytes transferred on one channel bus.
func (a *Array) ChannelBytes(channel int) int64 { return a.channels[channel].Bytes() }

// ChannelBusy returns one channel bus's total occupied time.
func (a *Array) ChannelBusy(channel int) sim.Time { return a.channels[channel].BusyTime() }
