// Package isa defines the instruction set executed by the simulated in-SSD
// compute engines: a 32-bit scalar RISC ISA modelled on RV32IM (the ibex
// cores the paper evaluates) plus the ASSASIN stream extension of Table III
// (StreamLoad, StreamStore, StreamPeek, StreamAdvance, StreamEnd and stream
// CSR access).
//
// Instructions are represented structurally (Inst) for fast interpretation,
// with a 32-bit binary encoding (Encode/Decode) mirroring the fixed-width
// format sketched in the paper. Each op's Form fixes both its assembly
// notation (Inst.String, read back by asm.Parse) and its binary layout.
package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Op enumerates operations. The numeric values are part of the binary
// encoding (the 7-bit opcode field), so new ops must be appended.
type Op uint8

// Operations. Names follow RISC-V mnemonics where the semantics match.
const (
	OpInvalid Op = iota

	// Register-register integer ops.
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpSlt
	OpSltu

	// Register-immediate integer ops.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpSrai
	OpSlti
	OpSltiu
	OpLui

	// M extension.
	OpMul
	OpMulh
	OpMulhu
	OpDiv
	OpDivu
	OpRem
	OpRemu

	// Loads and stores (byte, half, word; loads sign- or zero-extend).
	OpLb
	OpLbu
	OpLh
	OpLhu
	OpLw
	OpSb
	OpSh
	OpSw

	// Control flow.
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu
	OpJal
	OpJalr

	// ASSASIN stream extension (Table III). Stream identifies an input or
	// output stream slot in the core's stream buffers; Width is the access
	// width in bytes (1, 2 or 4).
	OpStreamLoad  // rd ← next Width bytes of input stream; advances Head
	OpStreamPeek  // rd ← Width bytes at Head + Imm; Head unchanged
	OpStreamAdv   // Head of input stream += Imm*Width bytes
	OpStreamStore // append low Width bytes of rs2 to output stream
	OpStreamEnd   // rd ← 1 if the input stream is exhausted, else 0
	OpStreamCsrR  // rd ← stream CSR (Imm selects Head/Tail; Stream selects slot)

	// Environment.
	OpHalt // terminate the program

	opCount
)

// Class groups operations by their timing behaviour in the core model.
type Class uint8

// Instruction classes.
const (
	ClassALU Class = iota
	ClassMul
	ClassDiv
	ClassLoad
	ClassStore
	ClassBranch
	ClassJump
	ClassStreamLoad
	ClassStreamStore
	ClassStreamCtl
	ClassHalt
)

// Form is an operation's operand form: the assembly syntax of its operands
// (Args), which Inst.String writes and asm.Parse reads, and the binary
// layout Encode and Decode use (see encode.go).
type Form uint8

// Operand forms, each with the syntax of an example op.
const (
	FormNone        Form = iota // halt
	FormRRR                     // add rd, rs1, rs2
	FormRRI                     // addi rd, rs1, imm
	FormU                       // lui rd, 0x12345
	FormLoad                    // lw rd, imm(rs1); also jalr
	FormStore                   // sw rs2, imm(rs1)
	FormBranch                  // beq rs1, rs2, +3
	FormJal                     // jal rd, -4
	FormStreamLoad              // streamload rd, s0, w4
	FormStreamPeek              // streampeek rd, s0, w4, 8
	FormStreamAdv               // streamadv s0, 4096
	FormStreamStore             // streamstore s0, w4, rs2
	FormStreamEnd               // streamend rd, s0
	FormStreamCsr               // streamcsrr rd, s0, csr1
	formCount
)

// Arg is one assembly operand: the Inst fields it holds and its notation.
type Arg uint8

// Operands.
const (
	ArgRd     Arg = iota // register → Rd
	ArgRs1               // register → Rs1
	ArgRs2               // register → Rs2
	ArgImm               // signed decimal → Imm
	ArgUImm              // hex upper immediate → Imm
	ArgMem               // imm(rs1) → Imm, Rs1
	ArgTarget            // +N/-N instructions from the branch itself → Imm
	ArgSlot              // stream slot sN → Stream
	ArgWidth             // access width w1, w2 or w4 → Width
	ArgBytes             // byte count → Imm×Width (the advance of streamadv)
	ArgCsr               // stream CSR selector csrN → Imm
)

var formArgs = [formCount][]Arg{
	FormNone:        nil,
	FormRRR:         {ArgRd, ArgRs1, ArgRs2},
	FormRRI:         {ArgRd, ArgRs1, ArgImm},
	FormU:           {ArgRd, ArgUImm},
	FormLoad:        {ArgRd, ArgMem},
	FormStore:       {ArgRs2, ArgMem},
	FormBranch:      {ArgRs1, ArgRs2, ArgTarget},
	FormJal:         {ArgRd, ArgTarget},
	FormStreamLoad:  {ArgRd, ArgSlot, ArgWidth},
	FormStreamPeek:  {ArgRd, ArgSlot, ArgWidth, ArgImm},
	FormStreamAdv:   {ArgSlot, ArgBytes},
	FormStreamStore: {ArgSlot, ArgWidth, ArgRs2},
	FormStreamEnd:   {ArgRd, ArgSlot},
	FormStreamCsr:   {ArgRd, ArgSlot, ArgCsr},
}

// Args returns the form's operands in assembly order.
func (f Form) Args() []Arg { return formArgs[f] }

// opInfo is the one table of operations: mnemonic, timing class and
// operand form.
var opInfo = [opCount]struct {
	name  string
	class Class
	form  Form
}{
	OpInvalid:     {"invalid", ClassALU, FormNone},
	OpAdd:         {"add", ClassALU, FormRRR},
	OpSub:         {"sub", ClassALU, FormRRR},
	OpAnd:         {"and", ClassALU, FormRRR},
	OpOr:          {"or", ClassALU, FormRRR},
	OpXor:         {"xor", ClassALU, FormRRR},
	OpSll:         {"sll", ClassALU, FormRRR},
	OpSrl:         {"srl", ClassALU, FormRRR},
	OpSra:         {"sra", ClassALU, FormRRR},
	OpSlt:         {"slt", ClassALU, FormRRR},
	OpSltu:        {"sltu", ClassALU, FormRRR},
	OpAddi:        {"addi", ClassALU, FormRRI},
	OpAndi:        {"andi", ClassALU, FormRRI},
	OpOri:         {"ori", ClassALU, FormRRI},
	OpXori:        {"xori", ClassALU, FormRRI},
	OpSlli:        {"slli", ClassALU, FormRRI},
	OpSrli:        {"srli", ClassALU, FormRRI},
	OpSrai:        {"srai", ClassALU, FormRRI},
	OpSlti:        {"slti", ClassALU, FormRRI},
	OpSltiu:       {"sltiu", ClassALU, FormRRI},
	OpLui:         {"lui", ClassALU, FormU},
	OpMul:         {"mul", ClassMul, FormRRR},
	OpMulh:        {"mulh", ClassMul, FormRRR},
	OpMulhu:       {"mulhu", ClassMul, FormRRR},
	OpDiv:         {"div", ClassDiv, FormRRR},
	OpDivu:        {"divu", ClassDiv, FormRRR},
	OpRem:         {"rem", ClassDiv, FormRRR},
	OpRemu:        {"remu", ClassDiv, FormRRR},
	OpLb:          {"lb", ClassLoad, FormLoad},
	OpLbu:         {"lbu", ClassLoad, FormLoad},
	OpLh:          {"lh", ClassLoad, FormLoad},
	OpLhu:         {"lhu", ClassLoad, FormLoad},
	OpLw:          {"lw", ClassLoad, FormLoad},
	OpSb:          {"sb", ClassStore, FormStore},
	OpSh:          {"sh", ClassStore, FormStore},
	OpSw:          {"sw", ClassStore, FormStore},
	OpBeq:         {"beq", ClassBranch, FormBranch},
	OpBne:         {"bne", ClassBranch, FormBranch},
	OpBlt:         {"blt", ClassBranch, FormBranch},
	OpBge:         {"bge", ClassBranch, FormBranch},
	OpBltu:        {"bltu", ClassBranch, FormBranch},
	OpBgeu:        {"bgeu", ClassBranch, FormBranch},
	OpJal:         {"jal", ClassJump, FormJal},
	OpJalr:        {"jalr", ClassJump, FormLoad},
	OpStreamLoad:  {"streamload", ClassStreamLoad, FormStreamLoad},
	OpStreamPeek:  {"streampeek", ClassStreamLoad, FormStreamPeek},
	OpStreamAdv:   {"streamadv", ClassStreamCtl, FormStreamAdv},
	OpStreamStore: {"streamstore", ClassStreamStore, FormStreamStore},
	OpStreamEnd:   {"streamend", ClassStreamCtl, FormStreamEnd},
	OpStreamCsrR:  {"streamcsrr", ClassStreamCtl, FormStreamCsr},
	OpHalt:        {"halt", ClassHalt, FormNone},
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opInfo) {
		return opInfo[o].name
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Class returns the timing class.
func (o Op) Class() Class {
	if int(o) < len(opInfo) {
		return opInfo[o].class
	}
	return ClassALU
}

// Form returns the operand form.
func (o Op) Form() Form {
	if int(o) < len(opInfo) {
		return opInfo[o].form
	}
	return FormNone
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, opCount)
	for _, o := range Ops() {
		m[o.String()] = o
	}
	return m
}()

// Lookup returns the operation whose mnemonic is name.
func Lookup(name string) (Op, bool) {
	o, ok := opByName[name]
	return o, ok
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o > OpInvalid && o < opCount }

// Ops returns every defined operation in encoding order — the domain for
// program generators (fuzzers, random testers) that need to draw valid ops.
func Ops() []Op {
	ops := make([]Op, 0, opCount-1)
	for o := OpInvalid + 1; o < opCount; o++ {
		ops = append(ops, o)
	}
	return ops
}

// IsStream reports whether o belongs to the ASSASIN stream extension.
func (o Op) IsStream() bool {
	switch o.Class() {
	case ClassStreamLoad, ClassStreamStore, ClassStreamCtl:
		return true
	}
	return false
}

// Stream CSR selectors for OpStreamCsrR (the Imm field).
const (
	CsrHead = 0 // current Head byte offset within the stream window
	CsrTail = 1 // current Tail byte offset (bytes delivered so far)
)

// Inst is one decoded instruction. Fields unused by an operation are zero.
type Inst struct {
	Op       Op
	Rd       uint8 // destination register (0-31; x0 discards writes)
	Rs1, Rs2 uint8 // source registers
	Imm      int32 // immediate / branch offset (instructions) / CSR selector
	Stream   uint8 // stream slot for stream ops (0-15)
	Width    uint8 // stream access width in bytes (1, 2 or 4)
}

// NumRegs is the architectural register count.
const NumRegs = 32

// regNames holds RISC-V ABI register names for disassembly.
var regNames = [NumRegs]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// RegName returns the ABI name of register r.
func RegName(r uint8) string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("x%d", r)
}

// String disassembles the instruction: the mnemonic, then the operands
// its form lists. asm.Parse reads the same notation back.
func (i Inst) String() string {
	var sb strings.Builder
	sb.WriteString(i.Op.String())
	for k, a := range i.Op.Form().Args() {
		if k == 0 {
			sb.WriteByte(' ')
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(i.arg(a))
	}
	return sb.String()
}

// arg renders one operand.
func (i Inst) arg(a Arg) string {
	switch a {
	case ArgRd:
		return RegName(i.Rd)
	case ArgRs1:
		return RegName(i.Rs1)
	case ArgRs2:
		return RegName(i.Rs2)
	case ArgImm:
		return strconv.Itoa(int(i.Imm))
	case ArgUImm:
		return fmt.Sprintf("%#x", uint32(i.Imm))
	case ArgMem:
		return fmt.Sprintf("%d(%s)", i.Imm, RegName(i.Rs1))
	case ArgTarget:
		return fmt.Sprintf("%+d", i.Imm)
	case ArgSlot:
		return fmt.Sprintf("s%d", i.Stream)
	case ArgWidth:
		return fmt.Sprintf("w%d", i.Width)
	case ArgBytes:
		return strconv.Itoa(int(i.Imm) * int(i.Width))
	default: // ArgCsr
		return fmt.Sprintf("csr%d", i.Imm)
	}
}
