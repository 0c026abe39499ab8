// Package power provides the analytical silicon cost models behind the
// paper's circuit evaluation: SRAM/cache area, power and access-time
// estimates (standing in for Cacti + Synopsys DC on the SAED 14 nm
// library), the component costs that each configuration's row in the ssd
// spec table sums into its Table V inventory, the memory-structure timing
// study (Fig. 20), and the efficiency computation (Fig. 22: speedup per
// unit power / area).
//
// Absolute constants are anchored to the paper's qualitative statements —
// "a L1 cache or similar-size SRAM [is] at the same order of magnitude with
// the compute logic of a core in area and power" — and to public 14 nm SRAM
// density figures; the experiments consume only *ratios* between
// configurations.
package power

import (
	"fmt"
	"math"
)

// Silicon cost of one component.
type Cost struct {
	AreaMM2 float64 // silicon area in mm²
	PowerMW float64 // power at full activity, mW
}

// Add sums costs.
func (c Cost) Add(o Cost) Cost { return Cost{c.AreaMM2 + o.AreaMM2, c.PowerMW + o.PowerMW} }

// Scale multiplies a cost by n instances.
func (c Cost) Scale(n float64) Cost { return Cost{c.AreaMM2 * n, c.PowerMW * n} }

// Anchor constants (14 nm class).
const (
	// sramMM2PerKB: 14nm high-density SRAM ≈ 0.081 µm²/bit plus ~60%
	// periphery (decoders, sense amps, muxes).
	sramMM2PerKB = 0.081e-6 * 8 * 1024 * 1.6 // ≈ 0.00106 mm²/KB
	// sramMWPerKB: dynamic + leakage at streaming access rates.
	sramMWPerKB = 0.20
	// cacheOverhead multiplies SRAM cost for tag arrays, comparators and
	// replacement state.
	cacheOverhead = 1.30
	// fifoOverhead: stream buffers add head/tail pointer logic and the
	// prefetched head FIFO, but no tags.
	fifoOverhead = 1.10

	// coreLogicArea / Power: an ibex-class in-order RV32IM core at 14 nm.
	coreLogicAreaMM2 = 0.020
	coreLogicPowerMW = 5.0

	// udpLaneArea / Power: the UDP lane is a specialized multiway-dispatch
	// engine — more control logic than a scalar core.
	udpLaneAreaMM2 = 0.034
	udpLanePowerMW = 7.5
)

// SRAM returns the cost of a plain SRAM of the given capacity.
func SRAM(bytes int) Cost {
	kb := float64(bytes) / 1024
	return Cost{AreaMM2: sramMM2PerKB * kb, PowerMW: sramMWPerKB * kb}
}

// Cache returns the cost of a cache data+tag array of the given capacity.
func Cache(bytes int) Cost {
	return SRAM(bytes).Scale(cacheOverhead)
}

// StreamBufferCost returns the cost of a stream buffer of the given
// capacity.
func StreamBufferCost(bytes int) Cost {
	return SRAM(bytes).Scale(fifoOverhead)
}

// CoreLogic returns the scalar core cost (pipeline, regfile, ALU, mul/div).
func CoreLogic() Cost { return Cost{coreLogicAreaMM2, coreLogicPowerMW} }

// UDPLane returns the UDP accelerator lane cost.
func UDPLane() Cost { return Cost{udpLaneAreaMM2, udpLanePowerMW} }

// Prefetcher returns the cost of the DCPT prefetcher's delta tables.
func Prefetcher() Cost { return Cost{AreaMM2: 0.004, PowerMW: 1.0} }

// AccessTimeNS models random-access time of an SRAM/scratchpad of the given
// capacity and port width at 14 nm (the Fig. 20 study): wordline/bitline
// delay grows with the log of capacity, and wide ports add mux depth.
//
// Anchors: a 64 KiB scratchpad with an 8 B port needs > 1 ns (2 cycles at
// 1 GHz); 32 KiB is marginal at ~0.9 ns.
func AccessTimeNS(bytes int, widthBytes int) float64 {
	kb := float64(bytes) / 1024
	if kb < 0.125 {
		kb = 0.125
	}
	t := 0.25 + 0.13*math.Log2(kb)
	t += 0.0022 * float64(widthBytes)
	return t
}

// FIFOAccessTimeNS models the stream buffer's prefetched head FIFO: the
// core-facing access touches a small latch-based head buffer (two 128-byte
// entries), not the backing SRAM, so even a 64 B port stays at ~0.5 ns —
// the paper's Fig. 20 result that lets AssasinSb shorten its clock.
func FIFOAccessTimeNS(widthBytes int) float64 {
	return 0.36 + 0.0022*float64(widthBytes)
}

// Component is a named Table V row.
type Component struct {
	Name string
	Cost Cost
}

// String formats the row.
func (c Component) String() string {
	return fmt.Sprintf("%-28s %8.4f mm² %8.2f mW", c.Name, c.Cost.AreaMM2, c.Cost.PowerMW)
}

// ComponentTable returns the Table V component inventory.
func ComponentTable() []Component {
	return []Component{
		{"ibex core logic", CoreLogic()},
		{"UDP lane logic", UDPLane()},
		{"32KB L1 cache", Cache(32 << 10)},
		{"256KB L2 cache", Cache(256 << 10)},
		{"64KB scratchpad", SRAM(64 << 10)},
		{"256KB scratchpad", SRAM(256 << 10)},
		{"64KB+64KB streambuffer", StreamBufferCost(128 << 10)},
	}
}
