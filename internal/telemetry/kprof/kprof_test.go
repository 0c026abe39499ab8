package kprof

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"assasin/internal/asm"
	"assasin/internal/cpu"
	"assasin/internal/sim"
)

// testProgram is a tiny two-block kernel: an ALU run ending in a backward
// branch, then a halt.
func testProgram() *asm.Program {
	b := asm.New()
	loop := b.Here()
	b.Addi(asm.T0, asm.T0, 1)
	b.Add(asm.T1, asm.T1, asm.T0)
	b.Blt(asm.T0, asm.A0, loop)
	b.Halt()
	p := b.MustBuild()
	p.Name = "tiny"
	return p
}

const period = sim.Time(1000) // 1 ns in ps

// record simulates three loop iterations the way the precise engine would.
func record(cp *cpu.CoreProfile) {
	for it := 0; it < 3; it++ {
		cp.Record(0, period, cpu.StallExec, 0)
		cp.Record(1, period, cpu.StallExec, 0)
		cp.Record(2, period, cpu.StallExec, period) // taken branch, 1 penalty cycle
	}
	cp.Record(3, period, cpu.StallExec, 0) // halt
}

func TestSnapshotBlocksAndTotals(t *testing.T) {
	p := new(cpu.Profiler)
	cp := p.ForProgram(testProgram(), period)
	record(cp)
	prof := Snapshot(p)
	if len(prof.Kernels) != 1 || prof.Kernels[0].Kernel != "tiny" {
		t.Fatalf("kernels: %+v", prof.Kernels)
	}
	// Leaders: 0 (entry and branch target), 3 (after branch). The branch
	// splits [0,3) from [3,4).
	blocks := prof.Kernels[0].Blocks
	if len(blocks) != 2 || blocks[0].Start != 0 || blocks[0].End != 3 || blocks[1].Start != 3 {
		t.Fatalf("blocks: %+v", blocks)
	}
	insts, ps := prof.Totals()
	want := [cpu.NumClasses]int64{0: 10 * int64(period), 1 + cpu.StallExec: 3 * int64(period)}
	if insts != 10 || ps != want {
		t.Errorf("totals: insts %d, class times %v, want 10 and %v", insts, ps, want)
	}
	if sym := blocks[0].PCs[2].Sym; !strings.Contains(sym, "blt") || !strings.HasPrefix(sym, "2:") {
		t.Errorf("pc 2 sym = %q", sym)
	}
}

// TestBulkMatchesPerStep pins the spread rule: a difference-array bulk
// recording must snapshot identically to per-pc Records.
func TestBulkMatchesPerStep(t *testing.T) {
	prog := testProgram()
	perStep := new(cpu.Profiler)
	cp := perStep.ForProgram(prog, period)
	for it := 0; it < 5; it++ {
		cp.Record(0, period, cpu.StallExec, 0)
		cp.Record(1, period, cpu.StallExec, 0)
	}
	bulk := new(cpu.Profiler)
	cb := bulk.ForProgram(prog, period)
	for it := 0; it < 5; it++ {
		cb.BulkALU(0, 2)
	}
	a, b := Snapshot(perStep), Snapshot(bulk)
	aj, _ := a.Pprof()
	bj, _ := b.Pprof()
	if !bytes.Equal(aj, bj) {
		t.Errorf("bulk snapshot diverges from per-step")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	p := new(cpu.Profiler)
	record(p.ForProgram(testProgram(), period))
	a, err := Snapshot(p).Pprof()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Snapshot(p).Pprof()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("pprof bytes differ between identical snapshots")
	}
}

func TestFoldedAndHotBlocks(t *testing.T) {
	p := new(cpu.Profiler)
	record(p.ForProgram(testProgram(), period))
	prof := Snapshot(p)
	folded := prof.Folded()
	if !strings.Contains(folded, "tiny;tiny: 2: blt t0, a0, -2 6000") {
		t.Errorf("folded output:\n%s", folded)
	}
	table := prof.FormatHotBlocks(10)
	if !strings.HasPrefix(table, "GUEST HOT BLOCKS (top 2)") {
		t.Errorf("table header:\n%s", table)
	}
	if !strings.HasSuffix(table, "\n\n") {
		t.Errorf("table must end with a blank line for script extraction")
	}
	hot := prof.HotBlocks(1)
	if len(hot) != 1 || hot[0].Start != 0 {
		t.Errorf("hot block: %+v", hot)
	}
}

func TestMergeLabeled(t *testing.T) {
	mk := func(label string) Labeled {
		p := new(cpu.Profiler)
		record(p.ForProgram(testProgram(), period))
		s := Snapshot(p)
		return Labeled{Label: label, Profile: s}
	}
	m := MergeLabeled([]Labeled{mk("Stat/AssasinSb"), mk("Stat/Baseline")})
	if len(m.Kernels) != 2 {
		t.Fatalf("kernels: %+v", m.Kernels)
	}
	// Single-kernel runs take the run label outright; sorted by name.
	if m.Kernels[0].Kernel != "Stat/AssasinSb" || m.Kernels[1].Kernel != "Stat/Baseline" {
		t.Errorf("kernel names: %q, %q", m.Kernels[0].Kernel, m.Kernels[1].Kernel)
	}
}

// TestPprofWire decodes the gzipped profile.proto with a minimal wire
// walker and checks the structural invariants go tool pprof relies on:
// six sample types, a string table containing the kernel symbols, and one
// two-frame sample per nonzero pc.
func TestPprofWire(t *testing.T) {
	p := new(cpu.Profiler)
	record(p.ForProgram(testProgram(), period))
	raw, err := Snapshot(p).Pprof()
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}

	var sampleTypes, samples, mappings, locations, functions int
	var strs []string
	for off := 0; off < len(data); {
		tag, n := uvarint(data[off:])
		off += n
		field, wire := int(tag>>3), int(tag&7)
		switch wire {
		case 0:
			_, n := uvarint(data[off:])
			off += n
		case 2:
			ln, n := uvarint(data[off:])
			off += n
			body := data[off : off+int(ln)]
			off += int(ln)
			switch field {
			case 1:
				sampleTypes++
			case 2:
				samples++
			case 3:
				mappings++
			case 4:
				locations++
			case 5:
				functions++
			case 6:
				strs = append(strs, string(body))
			}
		default:
			t.Fatalf("unexpected wire type %d", wire)
		}
	}
	if sampleTypes != len(sampleColumns) {
		t.Errorf("sample types: %d", sampleTypes)
	}
	if samples != 4 { // four nonzero pcs
		t.Errorf("samples: %d", samples)
	}
	if mappings != 1 {
		t.Errorf("mappings: %d", mappings)
	}
	// One location and function per pc plus one per kernel.
	if locations != 5 || functions != 5 {
		t.Errorf("locations %d functions %d", locations, functions)
	}
	if len(strs) == 0 || strs[0] != "" {
		t.Fatalf("string table must start with the empty string: %q", strs)
	}
	joined := strings.Join(strs, "\n")
	for _, want := range []string{"tiny", "tiny: 3: halt", "busy", "picoseconds", "instructions"} {
		if !strings.Contains(joined, want) {
			t.Errorf("string table missing %q", want)
		}
	}
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; ; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
}
