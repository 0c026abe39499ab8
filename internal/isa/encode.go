package isa

import "fmt"

// Binary encoding. Every instruction is one 32-bit word, in the spirit of
// the fixed-width "instruction format [31:0]" column of Table III. Bits
// [6:0] hold the opcode (the Op value); the op's Form picks the layout of
// bits [31:7]:
//
//	form                    layout  [31:7]
//	none                    -       zero
//	rrr                     R       rs2[21:17] rs1[16:12] rd[11:7]
//	rri, load (and jalr)    I       imm[31:17] rs1[16:12] rd[11:7]
//	store, branch           S       imm[14:5]@[31:22] rs2[21:17] rs1[16:12] imm[4:0]@[11:7]
//	u (lui), jal            U       imm[31:12] rd[11:7]
//	the six stream forms    Z       imm[31:20] width[19:17] stream[16:13] reg[11:7]
//
// I and S immediates are 15-bit signed. The U immediate is 20 bits:
// unsigned for lui, signed for jal. A Z word holds one register, rs2 for
// streamstore and rd for the other stream ops, a width code (0, 1, 2 for
// 1, 2, 4 bytes) and a 12-bit signed immediate. Encode rejects values
// outside these ranges; the asm package keeps kernel immediates well
// inside them.
const (
	iImmBits = 15 // I-layout signed immediate
	sImmBits = 15 // S-layout signed immediate (split 10+5)
	uImmBits = 20 // U-layout immediate
	zImmBits = 12 // Z-layout signed immediate
)

// zWidths maps a Z-layout width code to bytes; codes 3-7 are unused.
var zWidths = [8]uint8{1, 2, 4}

func fits(v int32, bits int) bool {
	min := -(int32(1) << (bits - 1))
	max := (int32(1) << (bits - 1)) - 1
	return v >= min && v <= max
}

func fitsU(v int32, bits int) bool {
	return v >= 0 && v < (int32(1)<<bits)
}

// Encode packs the instruction into its 32-bit binary form.
func Encode(i Inst) (uint32, error) {
	if !i.Op.Valid() {
		return 0, fmt.Errorf("isa: encode: invalid op %d", i.Op)
	}
	if i.Rd >= NumRegs || i.Rs1 >= NumRegs || i.Rs2 >= NumRegs {
		return 0, fmt.Errorf("isa: encode %s: register out of range", i.Op)
	}
	badImm := func() (uint32, error) {
		return 0, fmt.Errorf("isa: encode %s: immediate %d out of range", i.Op, i.Imm)
	}
	w := uint32(i.Op) & 0x7f
	imm := uint32(i.Imm)
	rd, rs1, rs2 := uint32(i.Rd)<<7, uint32(i.Rs1)<<12, uint32(i.Rs2)<<17
	switch f := i.Op.Form(); f {
	case FormNone:
	case FormRRR:
		w |= rs2 | rs1 | rd
	case FormRRI, FormLoad:
		if !fits(i.Imm, iImmBits) {
			return badImm()
		}
		w |= (imm&0x7fff)<<17 | rs1 | rd
	case FormStore, FormBranch:
		if !fits(i.Imm, sImmBits) {
			return badImm()
		}
		w |= (imm>>5&0x3ff)<<22 | rs2 | rs1 | (imm&0x1f)<<7
	case FormU, FormJal:
		if f == FormU && !fitsU(i.Imm, uImmBits) || f == FormJal && !fits(i.Imm, uImmBits) {
			return badImm()
		}
		w |= (imm&0xfffff)<<12 | rd
	default: // Z
		if !fits(i.Imm, zImmBits) {
			return badImm()
		}
		if i.Stream >= 16 {
			return 0, fmt.Errorf("isa: encode %s: stream %d out of range", i.Op, i.Stream)
		}
		var wenc uint32
		switch i.Width {
		case 0, 1:
		case 2:
			wenc = 1
		case 4:
			wenc = 2
		default:
			return 0, fmt.Errorf("isa: encode %s: width %d unsupported", i.Op, i.Width)
		}
		reg := i.Rd
		if f == FormStreamStore {
			reg = i.Rs2
		}
		w |= (imm&0xfff)<<20 | wenc<<17 | uint32(i.Stream)<<13 | uint32(reg)<<7
	}
	return w, nil
}

func signExtend(v uint32, bits int) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// Decode unpacks a 32-bit word produced by Encode.
func Decode(w uint32) (Inst, error) {
	op := Op(w & 0x7f)
	if !op.Valid() {
		return Inst{}, fmt.Errorf("isa: decode: invalid opcode %d", w&0x7f)
	}
	i := Inst{Op: op}
	rd, rs1, rs2 := uint8(w>>7&0x1f), uint8(w>>12&0x1f), uint8(w>>17&0x1f)
	switch f := op.Form(); f {
	case FormNone:
	case FormRRR:
		i.Rd, i.Rs1, i.Rs2 = rd, rs1, rs2
	case FormRRI, FormLoad:
		i.Rd, i.Rs1 = rd, rs1
		i.Imm = signExtend(w>>17&0x7fff, iImmBits)
	case FormStore, FormBranch:
		i.Rs1, i.Rs2 = rs1, rs2
		i.Imm = signExtend((w>>22&0x3ff)<<5|w>>7&0x1f, sImmBits)
	case FormU:
		i.Rd, i.Imm = rd, int32(w>>12&0xfffff)
	case FormJal:
		i.Rd, i.Imm = rd, signExtend(w>>12&0xfffff, uImmBits)
	default: // Z
		if f == FormStreamStore {
			i.Rs2 = rd
		} else {
			i.Rd = rd
		}
		i.Stream = uint8(w >> 13 & 0xf)
		i.Width = zWidths[w>>17&0x7]
		i.Imm = signExtend(w>>20&0xfff, zImmBits)
	}
	return i, nil
}
