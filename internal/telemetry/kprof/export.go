// Text exports: folded flamegraph lines and the deterministic top-N
// hot-block table surfaced by -kprof on assasin-sim / assasin-bench.
package kprof

import (
	"fmt"
	"sort"
	"strings"

	"assasin/internal/sim"
)

// Folded renders the profile as collapsed flamegraph stacks
// ("kernel;kernel: pc: disasm totalPs"), one line per pc with nonzero
// time, in kernel/pc order.
func (p *Profile) Folded() string {
	var sb strings.Builder
	for _, k := range p.Kernels {
		for _, b := range k.Blocks {
			for _, s := range b.PCs {
				if t := s.TotalPs(); t > 0 {
					fmt.Fprintf(&sb, "%s;%s: %s %d\n", k.Kernel, k.Kernel, s.Sym, t)
				}
			}
		}
	}
	return sb.String()
}

// HotBlock is one ranked entry of the hot-block table.
type HotBlock struct {
	Kernel string
	BlockProfile
}

// HotBlocks ranks all blocks by total attributed time, descending, with a
// deterministic (kernel, start) tiebreak, returning at most n (n <= 0
// means all).
func (p *Profile) HotBlocks(n int) []HotBlock {
	var all []HotBlock
	for _, k := range p.Kernels {
		for _, b := range k.Blocks {
			all = append(all, HotBlock{Kernel: k.Kernel, BlockProfile: b})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		ti, tj := all[i].TotalPs(), all[j].TotalPs()
		if ti != tj {
			return ti > tj
		}
		if all[i].Kernel != all[j].Kernel {
			return all[i].Kernel < all[j].Kernel
		}
		return all[i].Start < all[j].Start
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// FormatHotBlocks renders the top-n table. Each row is one basic block
// with its class split and the disassembly of its hottest pc; the section
// ends with a blank line so scripts can extract it with a range match.
func (p *Profile) FormatHotBlocks(n int) string {
	blocks := p.HotBlocks(n)
	var sb strings.Builder
	fmt.Fprintf(&sb, "GUEST HOT BLOCKS (top %d)\n", len(blocks))
	if len(blocks) == 0 {
		sb.WriteString("  (no samples)\n\n")
		return sb.String()
	}
	_, ps := p.Totals()
	var grand int64
	for _, v := range ps {
		grand += v
	}
	fmt.Fprintf(&sb, "  %3s %6s %9s %9s %9s %9s %9s %9s %10s  %s\n",
		"#", "share", "total", "busy", "exec", "stream", "out-full", "mem", "insts", "kernel block")
	for i, b := range blocks {
		share := 0.0
		if grand > 0 {
			share = 100 * float64(b.TotalPs()) / float64(grand)
		}
		fmt.Fprintf(&sb, "  %3d %5.1f%% %9s %9s %9s %9s %9s %9s %10d  %s [%d,%d)\n",
			i+1, share, sim.Time(b.TotalPs()), sim.Time(b.BusyPs), sim.Time(b.ExecStallPs),
			sim.Time(b.StreamWaitPs), sim.Time(b.OutFullPs), sim.Time(b.MemWaitPs),
			b.Insts, b.Kernel, b.Start, b.End)
		if hot := b.hottest(); hot != nil {
			fmt.Fprintf(&sb, "      hot pc %s\n", hot.Sym)
		}
	}
	sb.WriteString("\n")
	return sb.String()
}

// hottest returns the block's most expensive pc (ties to the lowest pc).
func (b BlockProfile) hottest() *PCSample {
	var best *PCSample
	for i := range b.PCs {
		if best == nil || b.PCs[i].TotalPs() > best.TotalPs() {
			best = &b.PCs[i]
		}
	}
	return best
}
