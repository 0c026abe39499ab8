package asm

import (
	"fmt"
	"strconv"
	"strings"

	"assasin/internal/isa"
)

// Parse assembles textual assembly into a Program. It reads the notation
// Inst.String writes, so Parse(p.Disassemble()) reproduces p's
// instructions. An op's operands follow its isa.Form:
//
//	none          halt
//	rrr           add  rd, rs1, rs2
//	rri           addi rd, rs1, imm
//	u             lui  rd, 0x12345        ; the upper 20 bits
//	load          lw   rd, imm(rs1)       ; also jalr rd, imm(rs1)
//	store         sw   rs2, imm(rs1)
//	branch        bne  rs1, rs2, target   ; a target is a label or a signed
//	jal           jal  rd, target         ; offset in instructions: +2, -3
//	stream load   streamload  rd, s0q, w4 ; slots s<N>q or s<N>, widths w1/w2/w4
//	stream peek   streampeek  rd, s0q, w4, off
//	stream adv    streamadv   s0q, bytes
//	stream store  streamstore s1q, w1, rs2
//	stream end    streamend   rd, s0q
//	stream csr    streamcsrr  rd, s0q, csr1 ; csr0 is Head, csr1 Tail
//
// Registers take ABI (a0) or numeric (x10) names; immediates are decimal
// or 0x hex. The pseudo-ops are li rd, imm (any 32-bit value), mv rd, rs,
// nop, j target and ret. A line may begin with labels ("loop:") and with
// a listing's pc ("12:"), which is ignored; '#' and ';' start comments.
func Parse(src string) (*Program, error) {
	b := New()
	labels := map[string]Label{}
	label := func(name string) Label {
		l, ok := labels[name]
		if !ok {
			l = b.NewLabel()
			labels[name] = l
		}
		return l
	}
	for n, line := range strings.Split(src, "\n") {
		if err := parseLine(b, label, line); err != nil {
			return nil, fmt.Errorf("asm: line %d: %v", n+1, err)
		}
	}
	return b.Build()
}

// parseLine binds the line's labels and emits its instruction, if any.
func parseLine(b *Builder, label func(string) Label, line string) error {
	if i := strings.IndexAny(line, "#;"); i >= 0 {
		line = line[:i]
	}
	for {
		head, rest, ok := strings.Cut(line, ":")
		if !ok {
			break
		}
		head = strings.TrimSpace(head)
		if head == "" {
			return fmt.Errorf("empty label")
		}
		if _, err := strconv.Atoi(head); err != nil { // not a listing's pc
			b.Bind(label(head))
		}
		line = rest
	}
	if strings.TrimSpace(line) == "" {
		return nil
	}
	fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
	if len(fields) == 0 {
		return fmt.Errorf("missing mnemonic")
	}
	return emitOne(b, label, fields[0], fields[1:])
}

// regNum resolves an ABI or xN register name.
func regNum(s string) (Reg, error) {
	for i := 0; i < isa.NumRegs; i++ {
		if isa.RegName(uint8(i)) == s {
			return Reg(i), nil
		}
	}
	if strings.HasPrefix(s, "x") {
		if n, err := strconv.Atoi(s[1:]); err == nil && n >= 0 && n < isa.NumRegs {
			return Reg(n), nil
		}
	}
	return 0, fmt.Errorf("unknown register %q", s)
}

// slotNum resolves a stream slot written s<N> or s<N>q.
func slotNum(s string) (uint8, error) {
	s = strings.TrimSuffix(s, "q")
	if !strings.HasPrefix(s, "s") {
		return 0, fmt.Errorf("bad stream slot %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 15 {
		return 0, fmt.Errorf("bad stream slot %q", s)
	}
	return uint8(n), nil
}

func immVal(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return int32(v), nil
}

// csrVal resolves a stream CSR selector written csr<N>.
func csrVal(s string) (int32, error) {
	n, err := strconv.Atoi(strings.TrimPrefix(s, "csr"))
	if !strings.HasPrefix(s, "csr") || err != nil {
		return 0, fmt.Errorf("bad stream csr %q", s)
	}
	return int32(n), nil
}

// widthVal resolves w1/w2/w4.
func widthVal(s string) (uint8, error) {
	switch s {
	case "w1":
		return 1, nil
	case "w2":
		return 2, nil
	case "w4":
		return 4, nil
	}
	return 0, fmt.Errorf("bad width %q", s)
}

// memOperand splits "imm(reg)".
func memOperand(s string) (int32, Reg, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	imm := int32(0)
	if open > 0 {
		v, err := immVal(s[:open])
		if err != nil {
			return 0, 0, err
		}
		imm = v
	}
	r, err := regNum(s[open+1 : len(s)-1])
	return imm, r, err
}

// pseudoOps are the assembler-only mnemonics. Each fills the operands it
// lists into its base instruction; li has none and expands through
// Builder.Li.
var pseudoOps = map[string]struct {
	base isa.Inst
	args []isa.Arg
}{
	"li":  {isa.Inst{}, []isa.Arg{isa.ArgRd, isa.ArgImm}},
	"mv":  {isa.Inst{Op: isa.OpAddi}, []isa.Arg{isa.ArgRd, isa.ArgRs1}},
	"nop": {isa.Inst{Op: isa.OpAddi}, nil},
	"j":   {isa.Inst{Op: isa.OpJal}, []isa.Arg{isa.ArgTarget}},
	"ret": {isa.Inst{Op: isa.OpJalr, Rs1: RA}, nil},
}

// emitOne assembles one instruction: its operands, read in the order of
// its form's isa.Args, fill in the instruction's fields.
func emitOne(b *Builder, label func(string) Label, mn string, args []string) error {
	var in isa.Inst
	var want []isa.Arg
	if op, ok := isa.Lookup(mn); ok {
		in, want = isa.Inst{Op: op}, op.Form().Args()
	} else if p, ok := pseudoOps[mn]; ok {
		in, want = p.base, p.args
	} else {
		return fmt.Errorf("unknown mnemonic %q", mn)
	}
	if len(args) != len(want) {
		return fmt.Errorf("%s wants %d operands, got %d", mn, len(want), len(args))
	}
	if in.Op.IsStream() {
		// A stream op without a width operand has width 1, as Decode
		// gives it.
		in.Width = 1
	}
	var target *Label
	for k, a := range want {
		s := args[k]
		var err error
		switch a {
		case isa.ArgRd:
			in.Rd, err = regNum(s)
		case isa.ArgRs1:
			in.Rs1, err = regNum(s)
		case isa.ArgRs2:
			in.Rs2, err = regNum(s)
		case isa.ArgImm, isa.ArgUImm, isa.ArgBytes:
			in.Imm, err = immVal(s)
		case isa.ArgMem:
			in.Imm, in.Rs1, err = memOperand(s)
		case isa.ArgTarget:
			if strings.ContainsRune("+-0123456789", rune(s[0])) { // an offset, not a label
				in.Imm, err = immVal(s)
			} else {
				l := label(s)
				target = &l
			}
		case isa.ArgSlot:
			in.Stream, err = slotNum(s)
		case isa.ArgWidth:
			in.Width, err = widthVal(s)
		case isa.ArgCsr:
			in.Imm, err = csrVal(s)
		}
		if err != nil {
			return err
		}
	}
	switch {
	case in.Op == isa.OpInvalid: // li
		b.Li(in.Rd, in.Imm)
	case in.Op.Form() == isa.FormStreamAdv: // Imm holds the byte count
		b.StreamAdv(in.Stream, in.Imm)
	case target != nil:
		b.emitBranchTo(in, *target)
	default:
		b.emit(in)
	}
	return nil
}
