package experiments

import (
	"fmt"
	"strings"

	"assasin/internal/power"
	"assasin/internal/ssd"
)

// Table4 renders the configuration table (Table IV).
func Table4(cfg Config) string {
	var b strings.Builder
	b.WriteString("Table IV — configurations of in-SSD compute engines\n")
	fmt.Fprintf(&b, "%-12s%-22s%-34s%s\n", "Config", "Data source", "ISA", "MemArch per core (32K L1I omitted)")
	for _, a := range ssd.AllArchs() {
		source, isa, mem := a.Table4()
		fmt.Fprintf(&b, "%-12s%-22s%-34s%s\n", a, source, isa, mem)
	}
	fmt.Fprintf(&b, "All: %d cores @1GHz, 8×1GB/s flash channels, 8GB/s LPDDR5, PCIe Gen4 x4 host\n", cfg.Cores)
	return b.String()
}

// Fig20Row is one memory structure's access timing.
type Fig20Row struct {
	Structure string
	Bytes     int
	WidthB    int
	TimeNS    float64
	Cycles1G  int // cycles at 1 GHz
}

// Fig20 evaluates access timing of the candidate memory structures, the
// circuit study behind the clock adjustments: the streambuffer's prefetched
// head FIFO reaches 0.5 ns even 64 B wide, while scratchpads need 2 cycles
// at useful sizes.
func Fig20() []Fig20Row {
	var rows []Fig20Row
	add := func(name string, bytes, width int, ns float64) {
		cycles := 1
		for float64(cycles) < ns {
			cycles++
		}
		rows = append(rows, Fig20Row{name, bytes, width, ns, cycles})
	}
	for _, size := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		add("scratchpad (8B port)", size, 8, power.AccessTimeNS(size, 8))
	}
	for _, size := range []int{16 << 10, 64 << 10} {
		add("scratchpad (64B SIMD port)", size, 64, power.AccessTimeNS(size, 64))
	}
	add("streambuffer head FIFO", 128<<10, 1, power.FIFOAccessTimeNS(1))
	add("streambuffer head FIFO", 128<<10, 64, power.FIFOAccessTimeNS(64))
	return rows
}

// FormatFig20 renders the timing study plus the clock conclusion.
func FormatFig20(rows []Fig20Row) string {
	var b strings.Builder
	b.WriteString("Fig 20 — memory structure access timing (SAED14-class model)\n")
	fmt.Fprintf(&b, "%-28s%10s%8s%10s%10s\n", "Structure", "Size", "Width", "ns", "cyc@1GHz")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s%9dK%7dB%10.2f%10d\n", r.Structure, r.Bytes>>10, r.WidthB, r.TimeNS, r.Cycles1G)
	}
	fifo := power.FIFOAccessTimeNS(64)
	b.WriteString(fmt.Sprintf(
		"=> streambuffer MEM stage at %.2f ns shifts the critical path to IF: clock period 1.00 -> 0.89 ns (11%% faster)\n", fifo))
	b.WriteString("=> 64K scratchpad cannot close 1 GHz single-cycle: AssasinSp pays 2-cycle accesses\n")
	return b.String()
}

// Table5Config is the silicon cost of one configuration's compute complex.
type Table5Config struct {
	Arch ssd.Arch
	Cost power.Cost
}

// Table5Costs returns each configuration's compute-complex cost for cores
// engines, from ssd.Arch.CoreCost.
func Table5Costs(cores int) []Table5Config {
	var out []Table5Config
	for _, a := range ssd.AllArchs() {
		out = append(out, Table5Config{Arch: a, Cost: a.CoreCost().Scale(float64(cores))})
	}
	return out
}

// FormatTable5 renders component and per-config costs.
func FormatTable5(cores int) string {
	var b strings.Builder
	b.WriteString("Table V — power and area (14nm-class analytical model)\n")
	b.WriteString("Components:\n")
	for _, c := range power.ComponentTable() {
		fmt.Fprintf(&b, "  %s\n", c)
	}
	fmt.Fprintf(&b, "Configurations (%d engines):\n", cores)
	for _, c := range Table5Costs(cores) {
		fmt.Fprintf(&b, "  %-12s %8.3f mm² %9.1f mW\n", c.Arch, c.Cost.AreaMM2, c.Cost.PowerMW)
	}
	return b.String()
}

// Fig22Row is speedup and efficiency relative to Baseline.
type Fig22Row struct {
	Arch     ssd.Arch
	Speedup  float64
	PowerEff float64 // speedup ÷ relative power
	AreaEff  float64 // speedup ÷ relative area
}

// Fig22 combines the timing-adjusted speedups with Table V costs into the
// power- and area-efficiency comparison (the paper: AssasinSb reaches 2.0×
// power efficiency and 3.2× area efficiency over Baseline).
func Fig22(speedups map[ssd.Arch]float64, cores int) []Fig22Row {
	costs := map[ssd.Arch]power.Cost{}
	for _, c := range Table5Costs(cores) {
		costs[c.Arch] = c.Cost
	}
	base := costs[ssd.Baseline]
	var rows []Fig22Row
	for _, a := range ssd.AllArchs() {
		sp := speedups[a]
		relPower := costs[a].PowerMW / base.PowerMW
		relArea := costs[a].AreaMM2 / base.AreaMM2
		rows = append(rows, Fig22Row{
			Arch:     a,
			Speedup:  sp,
			PowerEff: sp / relPower,
			AreaEff:  sp / relArea,
		})
	}
	return rows
}

// FormatFig22 renders the efficiency comparison.
func FormatFig22(rows []Fig22Row) string {
	var b strings.Builder
	b.WriteString("Fig 22 — speedup and efficiency over Baseline (timing-adjusted)\n")
	fmt.Fprintf(&b, "%-12s%10s%12s%12s\n", "Config", "Speedup", "Power-eff", "Area-eff")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s%9.2fx%11.2fx%11.2fx\n", r.Arch, r.Speedup, r.PowerEff, r.AreaEff)
	}
	return b.String()
}
