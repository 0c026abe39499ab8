package kernels_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"assasin/internal/asm"
	"assasin/internal/kernels"
	"assasin/internal/memhier"
	"assasin/internal/tpch"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden program digests under testdata/")

// goldenVariants lists every kernel configuration whose programs are
// pinned: all 14 kernels at their defaults plus the parameter variants that
// change the emitted code shape.
func goldenVariants() []struct {
	name string
	k    kernels.Kernel
} {
	type variant = struct {
		name string
		k    kernels.Kernel
	}
	filterPreds := []kernels.FieldPred{{Offset: 0, Lo: 1, Hi: 50}, {Offset: 8, Lo: 2, Hi: 90}, {Offset: 12, Hi: 7}}
	psfPreds := []kernels.PSFPred{{Col: 2, Lo: 3, Hi: 9}, {Col: 5, Lo: 19940101, Hi: 19941231}}
	vs := []variant{
		{"scan", kernels.Scan{}},
		{"scan-u2", kernels.Scan{Unroll: 2}},
		{"scan-u16", kernels.Scan{Unroll: 16}},
		{"stat", kernels.Stat{}},
		{"raid4", kernels.RAID4{}},
		{"raid6", kernels.RAID6{}},
		{"aes", kernels.AES{}},
		{"select", kernels.Select{TupleSize: 32, FieldOffsets: []int{0, 8, 20}}},
		{"dedup", kernels.Dedup{}},
		{"lz", kernels.LZDecompress{}},
		{"mlp", kernels.MLP{}},
		{"train", kernels.LinearTrain{}},
		{"degree", kernels.Degree{}},
		{"replicate", kernels.Replicate{}},
	}
	for k := 2; k <= 4; k++ {
		vs = append(vs,
			variant{fmt.Sprintf("raid4-k%d", k), kernels.RAID4{K: k}},
			variant{fmt.Sprintf("raid6-k%d", k), kernels.RAID6{K: k}})
	}
	for n := 1; n <= 3; n++ {
		vs = append(vs, variant{fmt.Sprintf("filter-p%d", n), kernels.Filter{TupleSize: 32, Preds: filterPreds[:n]}})
	}
	for n := 0; n <= 2; n++ {
		vs = append(vs, variant{fmt.Sprintf("psf-p%d", n), kernels.PSF{NumFields: 6, Project: []int{0, 2, 5}, Preds: psfPreds[:n]}})
	}
	for _, q := range tpch.Queries() {
		vs = append(vs, variant{fmt.Sprintf("psf-q%d", q.ID), q.PSF})
	}
	return vs
}

// programDigest hashes everything that defines a program: its name, its
// listing, and every instruction's raw fields. It also checks that the
// listing assembles back to the same instructions, so profiles and
// listings name exactly the instruction that ran.
func programDigest(t *testing.T, k kernels.Kernel, p kernels.BuildParams) string {
	t.Helper()
	prog, err := k.Build(p)
	if err != nil {
		t.Fatalf("%s %+v: %v", k.Name(), p, err)
	}
	back, err := asm.Parse(prog.Disassemble())
	switch {
	case err != nil:
		t.Errorf("%s %+v: listing does not assemble: %v", k.Name(), p, err)
	case len(back.Insts) != len(prog.Insts):
		t.Errorf("%s %+v: listing assembles to %d instructions, want %d", k.Name(), p, len(back.Insts), len(prog.Insts))
	default:
		for pc, in := range prog.Insts {
			if back.Insts[pc] != in {
				t.Errorf("%s %+v: pc %d %q assembles to %+v, want %+v", k.Name(), p, pc, in, back.Insts[pc], in)
				break
			}
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s", prog.Name, prog.Disassemble())
	for _, in := range prog.Insts {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d\n", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm, in.Stream, in.Width)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestProgramsGolden pins the exact program every kernel emits, in both
// lowerings, for both state bases and two page sizes (a software lowering
// releases a page with one StreamAdv, whose immediate caps the page below
// 8 KiB). The compiled engine
// recognizes loops by their instruction sequence and every simulated
// result follows from these programs, so a refactor of the code generators
// must leave all of them byte-identical. Regenerate with
// go test ./internal/kernels -run ProgramsGolden -update
// only for an intended change to the emitted code.
func TestProgramsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, v := range goldenVariants() {
		for _, style := range []kernels.Style{kernels.StyleStream, kernels.StyleSoftware} {
			for _, base := range []struct {
				name string
				addr uint32
			}{{"spad", memhier.ScratchpadBase}, {"dram", memhier.DRAMBase}} {
				for _, page := range []int{2048, 4096} {
					p := kernels.BuildParams{Style: style, PageSize: page, StateBase: base.addr}
					fmt.Fprintf(&buf, "%s/%v/%s/%d %s\n", v.name, style, base.name, page, programDigest(t, v.k, p))
				}
			}
		}
	}
	golden := filepath.Join("testdata", "golden_programs.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	got := bytes.Split(buf.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	if len(got) != len(wantLines) {
		t.Fatalf("%d program digests, %s has %d; run with -update if the change is intentional", len(got)-1, golden, len(wantLines)-1)
	}
	for i := range got {
		if !bytes.Equal(got[i], wantLines[i]) {
			t.Errorf("program changed: got %q, want %q", got[i], wantLines[i])
		}
	}
}
