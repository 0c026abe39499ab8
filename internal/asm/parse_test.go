package asm

import (
	"strings"
	"testing"

	"assasin/internal/isa"
)

// The test sources, shared with FuzzParse as its seed corpus.
const (
	basicSrc = `
		# sum the numbers 1..10
		li   a0, 0
		li   t0, 1
		li   t1, 11
	loop:
		add  a0, a0, t0
		addi t0, t0, 1
		blt  t0, t1, loop
		halt
	`
	memStreamSrc = `
		lw a0, 8(sp)
		sw a0, -4(s0)
		streamload a1, s0q, w4
		streampeek a2, s1q, w2, 16
		streamadv  s0q, 4096
		streamstore s2q, w1, a1
		streamend  t0, s0q
		halt
	`
	forwardSrc = `
		beq a0, zero, done
		addi a1, a1, 1
	done:
		halt
	`
	streamLoopSrc = `
	loop:
		streamload a0, s0q, w1
		streamstore s0q, w1, a0
		j loop
	`
)

// badSources must each fail to parse with an error, never a panic.
var badSources = []string{
	"frobnicate a0, a1",
	"add a0, a1",
	"lw a0, nope",
	"streamload a0, s99q, w4",
	"streamload a0, s0q, w3",
	"li a0, zork",
	"beq a0, zero, missing", // unbound label
	",",                     // separators only
	"l: ,",                  // label then separators only
	"streamcsrr a0, s0q, cs1",
	"bne a0, zero, +x",
	"streamadv s0q",
}

func TestParseBasicProgram(t *testing.T) {
	p, err := Parse(basicSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[len(p.Insts)-1].Op != isa.OpHalt {
		t.Fatal("missing halt")
	}
	// The backward branch resolves to the add.
	var blt isa.Inst
	for _, in := range p.Insts {
		if in.Op == isa.OpBlt {
			blt = in
		}
	}
	if blt.Imm != -2 {
		t.Fatalf("blt offset = %d, want -2", blt.Imm)
	}
}

func TestParseMemoryAndStreamOps(t *testing.T) {
	p, err := Parse(memStreamSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Op != isa.OpLw || p.Insts[0].Imm != 8 {
		t.Fatalf("lw parsed as %+v", p.Insts[0])
	}
	if p.Insts[2].Op != isa.OpStreamLoad || p.Insts[2].Width != 4 {
		t.Fatalf("streamload parsed as %+v", p.Insts[2])
	}
	if p.Insts[4].Op != isa.OpStreamAdv || int(p.Insts[4].Imm)*int(p.Insts[4].Width) != 4096 {
		t.Fatalf("streamadv parsed as %+v", p.Insts[4])
	}
	if p.Insts[5].Stream != 2 {
		t.Fatalf("streamstore slot = %d", p.Insts[5].Stream)
	}
}

func TestParseForwardLabel(t *testing.T) {
	p, err := Parse(forwardSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Imm != 2 {
		t.Fatalf("forward branch = %d, want 2", p.Insts[0].Imm)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range badSources {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
	// A separators-only line is reported with its line number.
	if _, err := Parse("nop\n , ,\nhalt"); err == nil || !strings.Contains(err.Error(), "line 2: missing mnemonic") {
		t.Errorf("separators-only line: err = %v, want a line 2 missing-mnemonic error", err)
	}
}

// FuzzParse feeds arbitrary text to the assembler, which must return a
// program or an error and never panic, and any program it accepts must
// round-trip through its listing. Run a bounded pass with
// go test ./internal/asm -run '^$' -fuzz FuzzParse -fuzztime 5s
func FuzzParse(f *testing.F) {
	for _, src := range append([]string{basicSrc, memStreamSrc, forwardSrc, streamLoopSrc}, badSources...) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		if p == nil {
			t.Fatalf("Parse(%q) returned neither a program nor an error", src)
		}
		checkRoundTrip(t, p)
	})
}

// checkRoundTrip fails t unless p's listing assembles to p's instructions.
func checkRoundTrip(t *testing.T, p *Program) {
	t.Helper()
	text := p.Disassemble()
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("%v in:\n%s", err, text)
	}
	if len(back.Insts) != len(p.Insts) {
		t.Fatalf("%d instructions assemble to %d in:\n%s", len(p.Insts), len(back.Insts), text)
	}
	for pc, in := range p.Insts {
		if back.Insts[pc] != in {
			t.Fatalf("pc %d: %+v assembles to %+v in:\n%s", pc, in, back.Insts[pc], text)
		}
	}
}

// TestDisassembleParseRoundTrip: the listing of a program with an
// instruction of every form, branches and jumps both ways included,
// re-assembles to the same instructions.
func TestDisassembleParseRoundTrip(t *testing.T) {
	b := New()
	top := b.Here()
	done := b.NewLabel()
	b.Li(A0, 0x12345678) // lui + addi
	b.Add(S0, S0, A0)
	b.Lw(A1, SP, 16)
	b.Sw(A1, S0, -8)
	b.Mul(T0, A1, A0)
	b.Jalr(RA, T0, 4)
	b.StreamLoad(A2, 3, 4)
	b.StreamPeek(A3, 1, 2, 6)
	b.StreamAdv(0, 4096)
	b.StreamAdv(1, 6)
	b.StreamAdv(2, 7)
	b.StreamStore(1, 2, A2)
	b.StreamEnd(T1, 3)
	b.StreamCsrR(T2, 0, isa.CsrTail)
	b.Bne(A0, Zero, done)
	b.Blt(A0, A1, top)
	b.Jal(RA, top)
	b.J(done)
	b.Bind(done)
	b.Halt()
	p := b.MustBuild()

	forms := map[isa.Form]bool{}
	for _, in := range p.Insts {
		forms[in.Op.Form()] = true
	}
	for _, op := range isa.Ops() {
		if !forms[op.Form()] {
			t.Errorf("no instruction of %s's form", op)
		}
	}
	checkRoundTrip(t, p)
}

// TestParseTargets: a branch or jump target is a label or a signed offset
// in instructions.
func TestParseTargets(t *testing.T) {
	p, err := Parse("bne a0, zero, +2\nhalt\njal ra, -2\nj 0\nbeq a0, a1, out\nout: halt")
	if err != nil {
		t.Fatal(err)
	}
	for pc, want := range []int32{2, 0, -2, 0, 1} {
		if p.Insts[pc].Imm != want {
			t.Errorf("pc %d: offset %d, want %d", pc, p.Insts[pc].Imm, want)
		}
	}
}

func TestParsedProgramExecutes(t *testing.T) {
	// End-to-end: text → program → (exercised via Encode, execution is
	// covered by the cpu package).
	p, err := Parse(streamLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Encode(); err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 3 {
		t.Fatalf("program = %d insts", len(p.Insts))
	}
}
