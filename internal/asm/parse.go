package asm

import (
	"fmt"
	"strconv"
	"strings"

	"assasin/internal/isa"
)

// Parse assembles textual assembly into a Program. The accepted syntax is
// the disassembler's output plus labels and comments, so
// Parse(Disassemble(p)) round-trips:
//
//	start:                  ; labels end with ':'
//	  li   a0, 100          ; pseudo-instructions: li, mv, nop, j, ret
//	  lw   a1, 8(sp)
//	  add  s0, s0, a1
//	  bne  a0, zero, start  ; branch targets may be labels or ±offsets
//	  streamload a2, s0q, w4  — stream slots are written s<N>q to avoid
//	                            clashing with register names; plain s<N>
//	                            is also accepted where a slot is expected
//	  halt                  ; '#' and ';' start comments
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
	lineNo := 0
	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf("asm: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
	}

	for _, raw := range strings.Split(src, "\n") {
		lineNo++
		line := raw
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Leading "NN:" from disassembler listings is ignored; trailing
		// "name:" defines a label.
		for {
			i := strings.Index(line, ":")
			if i < 0 {
				break
			}
			head := strings.TrimSpace(line[:i])
			if head == "" {
				fail("empty label")
				break
			}
			if _, err := strconv.Atoi(head); err == nil {
				// instruction index prefix from a listing; drop it
			} else {
				b.Bind(label(head))
			}
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
		if len(fields) == 0 {
			fail("missing mnemonic")
			return nil, firstErr
		}
		op := fields[0]
		args := fields[1:]
		if err := emitOne(b, label, op, args); err != nil {
			fail("%v", err)
		}
		if firstErr != nil {
			return nil, firstErr
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return b.Build()
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
	v, err := strconv.ParseInt(strings.TrimPrefix(s, "+"), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return int32(v), nil
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

func emitOne(b *Builder, label func(string) Label, op string, args []string) error {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s wants %d operands, got %d", op, n, len(args))
		}
		return nil
	}
	rrr := func(f func(rd, rs1, rs2 Reg)) error {
		if err := need(3); err != nil {
			return err
		}
		rd, e1 := regNum(args[0])
		r1, e2 := regNum(args[1])
		r2, e3 := regNum(args[2])
		if e1 != nil || e2 != nil || e3 != nil {
			return firstOf(e1, e2, e3)
		}
		f(rd, r1, r2)
		return nil
	}
	rri := func(f func(rd, rs1 Reg, imm int32)) error {
		if err := need(3); err != nil {
			return err
		}
		rd, e1 := regNum(args[0])
		r1, e2 := regNum(args[1])
		imm, e3 := immVal(args[2])
		if e1 != nil || e2 != nil || e3 != nil {
			return firstOf(e1, e2, e3)
		}
		f(rd, r1, imm)
		return nil
	}
	load := func(f func(rd, rs1 Reg, imm int32)) error {
		if err := need(2); err != nil {
			return err
		}
		rd, e1 := regNum(args[0])
		imm, r1, e2 := memOperand(args[1])
		if e1 != nil || e2 != nil {
			return firstOf(e1, e2)
		}
		f(rd, r1, imm)
		return nil
	}
	branch := func(f func(rs1, rs2 Reg, l Label)) error {
		if err := need(3); err != nil {
			return err
		}
		r1, e1 := regNum(args[0])
		r2, e2 := regNum(args[1])
		if e1 != nil || e2 != nil {
			return firstOf(e1, e2)
		}
		f(r1, r2, label(args[2]))
		return nil
	}

	switch op {
	case "add":
		return rrr(b.Add)
	case "sub":
		return rrr(b.Sub)
	case "and":
		return rrr(b.And)
	case "or":
		return rrr(b.Or)
	case "xor":
		return rrr(b.Xor)
	case "sll":
		return rrr(b.Sll)
	case "srl":
		return rrr(b.Srl)
	case "sra":
		return rrr(b.Sra)
	case "slt":
		return rrr(b.Slt)
	case "sltu":
		return rrr(b.Sltu)
	case "mul":
		return rrr(b.Mul)
	case "mulh":
		return rrr(b.Mulh)
	case "mulhu":
		return rrr(b.Mulhu)
	case "div":
		return rrr(b.Div)
	case "divu":
		return rrr(b.Divu)
	case "rem":
		return rrr(b.Rem)
	case "remu":
		return rrr(b.Remu)
	case "addi":
		return rri(b.Addi)
	case "andi":
		return rri(b.Andi)
	case "ori":
		return rri(b.Ori)
	case "xori":
		return rri(b.Xori)
	case "slli":
		return rri(b.Slli)
	case "srli":
		return rri(b.Srli)
	case "srai":
		return rri(b.Srai)
	case "slti":
		return rri(b.Slti)
	case "sltiu":
		return rri(b.Sltiu)
	case "lui":
		if err := need(2); err != nil {
			return err
		}
		rd, e1 := regNum(args[0])
		imm, e2 := immVal(args[1])
		if e1 != nil || e2 != nil {
			return firstOf(e1, e2)
		}
		b.Lui(rd, imm)
		return nil
	case "li":
		if err := need(2); err != nil {
			return err
		}
		rd, e1 := regNum(args[0])
		imm, e2 := immVal(args[1])
		if e1 != nil || e2 != nil {
			return firstOf(e1, e2)
		}
		b.Li(rd, imm)
		return nil
	case "mv":
		if err := need(2); err != nil {
			return err
		}
		rd, e1 := regNum(args[0])
		rs, e2 := regNum(args[1])
		if e1 != nil || e2 != nil {
			return firstOf(e1, e2)
		}
		b.Mv(rd, rs)
		return nil
	case "nop":
		b.Nop()
		return need(0)
	case "lb":
		return load(b.Lb)
	case "lbu":
		return load(b.Lbu)
	case "lh":
		return load(b.Lh)
	case "lhu":
		return load(b.Lhu)
	case "lw":
		return load(b.Lw)
	case "sb":
		return load(b.Sb)
	case "sh":
		return load(b.Sh)
	case "sw":
		return load(b.Sw)
	case "beq":
		return branch(b.Beq)
	case "bne":
		return branch(b.Bne)
	case "blt":
		return branch(b.Blt)
	case "bge":
		return branch(b.Bge)
	case "bltu":
		return branch(b.Bltu)
	case "bgeu":
		return branch(b.Bgeu)
	case "j":
		if err := need(1); err != nil {
			return err
		}
		b.J(label(args[0]))
		return nil
	case "jal":
		if err := need(2); err != nil {
			return err
		}
		rd, err := regNum(args[0])
		if err != nil {
			return err
		}
		b.Jal(rd, label(args[1]))
		return nil
	case "jalr":
		return load(b.Jalr)
	case "ret":
		b.Ret()
		return need(0)
	case "halt":
		b.Halt()
		return need(0)
	case "streamload":
		if err := need(3); err != nil {
			return err
		}
		rd, e1 := regNum(args[0])
		slot, e2 := slotNum(args[1])
		w, e3 := widthVal(args[2])
		if err := firstOf(e1, e2, e3); err != nil {
			return err
		}
		b.StreamLoad(rd, slot, w)
		return nil
	case "streampeek":
		if err := need(4); err != nil {
			return err
		}
		rd, e1 := regNum(args[0])
		slot, e2 := slotNum(args[1])
		w, e3 := widthVal(args[2])
		off, e4 := immVal(args[3])
		if err := firstOf(e1, e2, e3, e4); err != nil {
			return err
		}
		b.StreamPeek(rd, slot, w, off)
		return nil
	case "streamadv":
		if err := need(2); err != nil {
			return err
		}
		slot, e1 := slotNum(args[0])
		n, e2 := immVal(args[1])
		if err := firstOf(e1, e2); err != nil {
			return err
		}
		b.StreamAdv(slot, n)
		return nil
	case "streamstore":
		if err := need(3); err != nil {
			return err
		}
		slot, e1 := slotNum(args[0])
		w, e2 := widthVal(args[1])
		rs, e3 := regNum(args[2])
		if err := firstOf(e1, e2, e3); err != nil {
			return err
		}
		b.StreamStore(slot, w, rs)
		return nil
	case "streamend":
		if err := need(2); err != nil {
			return err
		}
		rd, e1 := regNum(args[0])
		slot, e2 := slotNum(args[1])
		if err := firstOf(e1, e2); err != nil {
			return err
		}
		b.StreamEnd(rd, slot)
		return nil
	default:
		return fmt.Errorf("unknown mnemonic %q", op)
	}
}

func firstOf(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
