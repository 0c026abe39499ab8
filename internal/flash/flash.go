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

// pageState tracks NAND programming constraints.
type pageState uint8

const (
	pageErased pageState = iota
	pageWritten
)

// blockStore holds one erase block's page contents and programming state.
// Blocks materialize independently, so the per-run footprint of a chip is
// proportional to the blocks it actually touches, not its geometry.
type blockStore struct {
	// nextPage is the next programmable page index (NAND requires in-order
	// programming within an erase block).
	nextPage int
	erases   int64
	states   []pageState // pagesPerBlock entries
	data     [][]byte    // pagesPerBlock entries
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

// state reads a page's programming state through the lazy arrays.
func (ch *chip) state(block, page int) pageState {
	if bs := ch.block(block); bs != nil {
		return bs.states[page]
	}
	return pageErased
}

// nextProgPage reads a block's next programmable page through the lazy
// arrays.
func (ch *chip) nextProgPage(block int) int {
	if bs := ch.block(block); bs != nil {
		return bs.nextPage
	}
	return 0
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
	// arena backs stored page copies (Write/InstallPage) in pointer-free
	// chunks so the GC never scans per-page allocations. Chunks double from
	// one page up to 128, so a dataset of n pages zeroes fewer than 2n.
	arena      []byte
	arenaOff   int
	arenaPages int

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

// allocPage carves one page-sized buffer out of the arena.
func (a *Array) allocPage() []byte {
	ps := a.cfg.PageSize
	if a.arenaOff+ps > len(a.arena) {
		a.arenaPages = min(max(2*a.arenaPages, 1), 128)
		a.arena = make([]byte, ps*a.arenaPages)
		a.arenaOff = 0
	}
	p := a.arena[a.arenaOff : a.arenaOff+ps : a.arenaOff+ps]
	a.arenaOff += ps
	return p
}

// materialize allocates one block's page arrays on first mutation, growing
// the chip's block table to reach it, and returns its store.
func (a *Array) materialize(ch *chip, block int) *blockStore {
	if block >= len(ch.blocks) {
		ch.blocks = append(ch.blocks, make([]*blockStore, block+1-len(ch.blocks))...)
	}
	bs := ch.blocks[block]
	if bs == nil {
		ppb := a.cfg.PagesPerBlock
		bs = &blockStore{states: make([]pageState, ppb), data: make([][]byte, ppb)}
		ch.blocks[block] = bs
	}
	return bs
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
// The returned slice aliases the array's stored page (or, for erased pages,
// a shared all-0xFF image) — callers must treat it as read-only. The page
// pipeline relies on this: page bytes flow flash→crossbar→stream buffer by
// reference and are never copied, because a stored page never changes
// (Write and InstallPage store into fresh arena pages, Erase only drops
// references), so an input stream window holds the page itself.
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
	var data []byte
	if bs := ch.block(p.Block); bs != nil {
		data = bs.data[p.Page]
	}
	if data == nil {
		data = a.erasedPage()
	}
	return data, senseDone, nil
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
// completion (when the source buffer can be reused) and the program
// completion (when the data is durable). NAND constraints are enforced: the
// target page must be erased and pages within a block must be programmed in
// order.
func (a *Array) Write(at sim.Time, p PPA, data []byte) (busDone, progDone sim.Time, err error) {
	if err := a.validate(p); err != nil {
		return 0, 0, err
	}
	if len(data) > a.cfg.PageSize {
		return 0, 0, fmt.Errorf("flash: write of %d bytes exceeds page size %d", len(data), a.cfg.PageSize)
	}
	ch := a.chipAt(p)
	if ch.state(p.Block, p.Page) != pageErased {
		return 0, 0, fmt.Errorf("flash: program of non-erased page %v", p)
	}
	if ch.nextProgPage(p.Block) != p.Page {
		return 0, 0, fmt.Errorf("flash: out-of-order program %v (next programmable page is %d)", p, ch.nextProgPage(p.Block))
	}
	busDone = a.channels[p.Channel].Access(at, a.cfg.PageSize)
	start := sim.MaxT(busDone, ch.nextFree)
	progDone = start + a.cfg.ProgramLatency
	ch.nextFree = progDone
	if a.Tel != nil {
		a.Tel.Programs.Inc()
		a.Tel.TransferBytes.Add(int64(a.cfg.PageSize))
	}
	bs := a.materialize(ch, p.Block)
	// Arena chunks are fresh zeroed memory and never recycled, so a short
	// write is zero-padded exactly like the old make+copy.
	stored := a.allocPage()
	copy(stored, data)
	bs.data[p.Page] = stored
	bs.states[p.Page] = pageWritten
	bs.nextPage = p.Page + 1
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
	bs := a.materialize(ch, block)
	for i := 0; i < a.cfg.PagesPerBlock; i++ {
		bs.states[i] = pageErased
		bs.data[i] = nil
	}
	bs.nextPage = 0
	bs.erases++
	if a.Tel != nil {
		a.Tel.Erases.Inc()
	}
	return done, nil
}

// InstallPage stores page contents functionally without consuming simulated
// time — used to set up experiment datasets (the equivalent of the drive
// having been written in the past). NAND ordering constraints still apply.
func (a *Array) InstallPage(p PPA, data []byte) error {
	if err := a.validate(p); err != nil {
		return err
	}
	if len(data) > a.cfg.PageSize {
		return fmt.Errorf("flash: install of %d bytes exceeds page size %d", len(data), a.cfg.PageSize)
	}
	ch := a.chipAt(p)
	if ch.state(p.Block, p.Page) != pageErased {
		return fmt.Errorf("flash: install on non-erased page %v", p)
	}
	if ch.nextProgPage(p.Block) != p.Page {
		return fmt.Errorf("flash: out-of-order install %v (next is %d)", p, ch.nextProgPage(p.Block))
	}
	bs := a.materialize(ch, p.Block)
	stored := a.allocPage()
	copy(stored, data)
	bs.data[p.Page] = stored
	bs.states[p.Page] = pageWritten
	bs.nextPage = p.Page + 1
	return nil
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
