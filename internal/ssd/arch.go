package ssd

import (
	"fmt"
	"strconv"
	"strings"

	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/memhier"
	"assasin/internal/power"
	"assasin/internal/sim"
)

// Arch identifies a Table IV configuration.
type Arch int

// Architectures.
const (
	// Baseline: in-order RV32IM cores with 32K L1D + 256K L2, data staged
	// in SSD DRAM — the state-of-the-art general-purpose computational SSD.
	Baseline Arch = iota
	// UDP: accelerator lanes with 256K private scratchpads, branch-free
	// dispatch, data copied from SSD DRAM into the scratchpads by firmware.
	UDP
	// Prefetch: Baseline plus a DCPT prefetcher at the L1.
	Prefetch
	// AssasinSp: ping-pong scratchpads fed from flash through the crossbar,
	// bypassing SSD DRAM; software-managed stream pointers.
	AssasinSp
	// AssasinSb: stream buffers with the stream ISA extension and a 64K
	// scratchpad for function state.
	AssasinSb
	// AssasinSbCache: AssasinSb plus a 32K L1D backed by DRAM for state
	// that overflows the scratchpad.
	AssasinSbCache
)

// defaultStreamSlots is S, the input and output stream slots per core.
const defaultStreamSlots = 8

// archSpec is one Table IV configuration: everything that differs between
// configurations, for ssd.New to build the cores, for the kernel lowering,
// and for the Table IV and Table V renderings. A new configuration is a new
// row here, not a new branch elsewhere.
type archSpec struct {
	// name is the paper's configuration name.
	name string
	// path is how the firmware moves flash pages to the cores; it decides
	// how software-style kernels see stream pages (viewPath).
	path firmware.DataPath
	// style is the kernel lowering.
	style kernels.Style
	// branchFree selects UDP's multiway dispatch, which pays no taken-branch
	// penalty. Table V charges such a core as a UDP lane.
	branchFree bool
	// l1d and l2 size the data caches; Size 0 means absent. The L1D misses
	// to the L2 when there is one, else to SSD DRAM.
	l1d, l2 memhier.CacheConfig
	// prefetchDegree attaches a DCPT prefetcher of this degree to the L1D
	// (0: none).
	prefetchDegree int
	// spBytes sizes the function-state scratchpad (0: none), accessed in
	// spCycles core cycles. Kernels keep their function state in it when
	// there is one (stateBase).
	spBytes, spCycles int
	// adjPeriod and adjSpCycles replace the 1 GHz clock (when nonzero) and
	// spCycles under Options.TimingAdjusted, the Fig 20 circuit results.
	adjPeriod   sim.Time
	adjSpCycles int
	// windowPages is the per-slot input window depth unless
	// Options.WindowPages overrides it; outWindowPages is the per-slot
	// output window depth. Both are in flash pages.
	windowPages, outWindowPages int
	// source, isa and mem are the Table IV columns. mem is a template:
	// {l1d}, {l1d.ways}, {l2}, {l2.ways}, {sp}, {io/2} and {slots} are
	// filled from the fields above.
	source, isa, mem string
	// l1iBytes is the instruction cache Table V charges; instruction fetch
	// is not simulated.
	l1iBytes int
	// ioBufBytes is the stream or ping-pong I/O buffer capacity Table V
	// charges: the paper's 64K I + 64K O. The simulated windows are deeper
	// (windowPages, outWindowPages; see DESIGN.md §6).
	ioBufBytes int
}

// archSpecs is the configuration table, indexed by Arch in Table IV order.
var archSpecs = [...]archSpec{
	Baseline: {
		name: "Baseline", path: firmware.PathDRAMStage, style: kernels.StyleSoftware,
		l1d: memhier.CacheConfig{Name: "l1d", Size: 32 << 10, Ways: 8, LineSize: 64},
		l2: memhier.CacheConfig{Name: "l2", Size: 256 << 10, Ways: 16, LineSize: 64,
			HitLatency: 10 * sim.Nanosecond},
		// DRAM staging buffers: deep enough to decouple cores from flash
		// latency, shallow enough that fill traffic is paced by consumption
		// instead of racing the whole dataset into DRAM.
		windowPages: 8, outWindowPages: 64,
		source: "DRAM (8GB/s)", isa: "RV32IM", mem: "L1D {l1d}/{l1d.ways}w + L2 {l2}/{l2.ways}w",
		l1iBytes: 32 << 10,
	},
	UDP: {
		name: "UDP", path: firmware.PathDRAMCopy, style: kernels.StyleSoftware,
		branchFree: true,
		// A 256 KiB scratchpad cannot be read in one 1 GHz cycle (the Fig 20
		// SRAM timing model gives ~1.3 ns): UDP lanes pay 2-cycle accesses,
		// one reason the paper finds the general-purpose AssasinSb ahead of
		// the UDP accelerator.
		spBytes: 256 << 10, spCycles: 2, adjSpCycles: 2,
		windowPages: 8, outWindowPages: 64,
		source: "DRAM (8GB/s)", isa: "UDP lane (branch-free dispatch)", mem: "{sp} scratchpad (fw copy-in)",
	},
	Prefetch: {
		name: "Prefetch", path: firmware.PathDRAMStage, style: kernels.StyleSoftware,
		l1d: memhier.CacheConfig{Name: "l1d", Size: 32 << 10, Ways: 8, LineSize: 64},
		l2: memhier.CacheConfig{Name: "l2", Size: 256 << 10, Ways: 16, LineSize: 64,
			HitLatency: 10 * sim.Nanosecond},
		prefetchDegree: 8,
		windowPages:    8, outWindowPages: 64,
		source: "DRAM (8GB/s)", isa: "RV32IM", mem: "L1D+L2 + DCPT prefetcher",
		l1iBytes: 32 << 10,
	},
	AssasinSp: {
		name: "AssasinSp", path: firmware.PathCrossbar, style: kernels.StyleSoftware,
		// Every stream access is served from the ping-pong scratchpads, so
		// this is the configuration the Fig 20 timing penalizes (2 cycles).
		spBytes: 64 << 10, spCycles: 1, adjSpCycles: 2,
		// The paper's P=2 with 16 KiB flash pages gives a 32 KiB window per
		// slot; at this model's 4 KiB pages that is 8 window pages.
		windowPages: 8, outWindowPages: 8,
		source: "Flash via crossbar", isa: "RV32IM", mem: "{sp} scratchpad + ping-pong I/O scratchpads",
		l1iBytes: 32 << 10, ioBufBytes: 128 << 10,
	},
	AssasinSb: {
		name: "AssasinSb", path: firmware.PathCrossbar, style: kernels.StyleStream,
		spBytes: 64 << 10, spCycles: 1, adjSpCycles: 1,
		// The streambuffer's prefetched head FIFO moves the critical path
		// to instruction fetch: the whole pipeline clocks 11% faster.
		adjPeriod:   890 * sim.Picosecond,
		windowPages: 8, outWindowPages: 8,
		source: "Flash via crossbar", isa: "RV32IM + stream ISA",
		mem:      "{sp} scratchpad + {io/2} I + {io/2} O streambuffer (S={slots})",
		l1iBytes: 32 << 10, ioBufBytes: 128 << 10,
	},
	AssasinSbCache: {
		name: "AssasinSb$", path: firmware.PathCrossbar, style: kernels.StyleStream,
		l1d:     memhier.CacheConfig{Name: "l1d", Size: 32 << 10, Ways: 8, LineSize: 64},
		spBytes: 64 << 10, spCycles: 1, adjSpCycles: 1,
		adjPeriod:   890 * sim.Picosecond,
		windowPages: 8, outWindowPages: 8,
		source: "Flash via crossbar", isa: "RV32IM + stream ISA", mem: "AssasinSb + {l1d} L1D",
		l1iBytes: 32 << 10, ioBufBytes: 128 << 10,
	},
}

// stateBase is where kernels place their function state: the scratchpad
// when the row has one, else SSD DRAM behind the caches.
func (sp *archSpec) stateBase() uint32 {
	if sp.spBytes > 0 {
		return memhier.ScratchpadBase
	}
	return memhier.DRAMBase
}

// viewPath is how stream pages appear to software-style kernels: through
// the caches when the firmware stages pages in SSD DRAM, else in the
// scratchpad the firmware or crossbar fills.
func (sp *archSpec) viewPath() memhier.ViewPath {
	if sp.path == firmware.PathDRAMStage {
		return memhier.ViewCached
	}
	return memhier.ViewScratchpad
}

// spec returns the configuration's row. Arch values outside the table are
// a programming error: the CLIs and decoders go through ParseArch.
func (a Arch) spec() *archSpec {
	if a < 0 || int(a) >= len(archSpecs) {
		panic(fmt.Sprintf("ssd: unknown architecture %d", int(a)))
	}
	return &archSpecs[a]
}

// String implements fmt.Stringer with the paper's configuration names.
func (a Arch) String() string {
	if a < 0 || int(a) >= len(archSpecs) {
		return fmt.Sprintf("Arch(%d)", int(a))
	}
	return archSpecs[a].name
}

// MarshalText implements encoding.TextMarshaler so Arch-keyed maps and
// fields serialize with the paper's configuration names.
func (a Arch) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler (the inverse of
// MarshalText, through ParseArch).
func (a *Arch) UnmarshalText(text []byte) error {
	v, err := ParseArch(string(text))
	if err != nil {
		return fmt.Errorf("ssd: %w", err)
	}
	*a = v
	return nil
}

// ParseArch returns the configuration with the given paper name, matched
// case-insensitively.
func ParseArch(name string) (Arch, error) {
	for _, a := range AllArchs() {
		if strings.EqualFold(a.String(), name) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown architecture %q (valid: %s)", name, ArchNames())
}

// AllArchs lists the six evaluated configurations in Table IV order.
func AllArchs() []Arch {
	all := make([]Arch, len(archSpecs))
	for i := range all {
		all[i] = Arch(i)
	}
	return all
}

// ArchNames returns the configuration names in Table IV order, comma
// separated.
func ArchNames() string {
	names := make([]string, len(archSpecs))
	for i := range archSpecs {
		names[i] = archSpecs[i].name
	}
	return strings.Join(names, ", ")
}

// StyleFor returns the kernel lowering for an architecture: the stream ISA
// for the stream-buffer ASSASIN variants, software-managed pointers for
// everything else.
func StyleFor(a Arch) kernels.Style { return a.spec().style }

// StateBaseFor returns where kernel function state lives: the scratchpad for
// scratchpad architectures, SSD DRAM (accessed through the cache) for the
// cache-hierarchy architectures.
func StateBaseFor(a Arch) uint32 { return a.spec().stateBase() }

// Table4 returns the configuration's Table IV columns: data source, ISA and
// per-core memory architecture. The sizes in the memory column are the ones
// ssd.New builds.
func (a Arch) Table4() (source, isa, mem string) {
	sp := a.spec()
	kib := func(b int) string { return strconv.Itoa(b>>10) + "K" }
	mem = strings.NewReplacer(
		"{l1d}", kib(sp.l1d.Size), "{l1d.ways}", strconv.Itoa(sp.l1d.Ways),
		"{l2}", kib(sp.l2.Size), "{l2.ways}", strconv.Itoa(sp.l2.Ways),
		"{sp}", kib(sp.spBytes), "{io/2}", kib(sp.ioBufBytes/2),
		"{slots}", strconv.Itoa(defaultStreamSlots),
	).Replace(sp.mem)
	return sp.source, sp.isa, mem
}

// CoreCost returns the silicon cost of one compute engine (Table V): the
// core or UDP lane logic, then the L1I, scratchpad, I/O buffers, L1D, L2
// and prefetcher the row sizes, in that order.
func (a Arch) CoreCost() power.Cost {
	sp := a.spec()
	c := power.CoreLogic()
	if sp.branchFree {
		c = power.UDPLane()
	}
	if sp.l1iBytes > 0 {
		c = c.Add(power.Cache(sp.l1iBytes))
	}
	if sp.spBytes > 0 {
		c = c.Add(power.SRAM(sp.spBytes))
	}
	if sp.ioBufBytes > 0 {
		if sp.style == kernels.StyleStream {
			c = c.Add(power.StreamBufferCost(sp.ioBufBytes))
		} else {
			c = c.Add(power.SRAM(sp.ioBufBytes)) // ping-pong scratchpads
		}
	}
	if sp.l1d.Size > 0 {
		c = c.Add(power.Cache(sp.l1d.Size))
	}
	if sp.l2.Size > 0 {
		c = c.Add(power.Cache(sp.l2.Size))
	}
	if sp.prefetchDegree > 0 {
		c = c.Add(power.Prefetcher())
	}
	return c
}
