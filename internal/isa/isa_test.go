package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		OpAdd:         "add",
		OpStreamLoad:  "streamload",
		OpStreamStore: "streamstore",
		OpHalt:        "halt",
		OpBgeu:        "bgeu",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
}

func TestOpClasses(t *testing.T) {
	cases := map[Op]Class{
		OpAdd:         ClassALU,
		OpMul:         ClassMul,
		OpDivu:        ClassDiv,
		OpLw:          ClassLoad,
		OpSb:          ClassStore,
		OpBne:         ClassBranch,
		OpJal:         ClassJump,
		OpStreamLoad:  ClassStreamLoad,
		OpStreamPeek:  ClassStreamLoad,
		OpStreamStore: ClassStreamStore,
		OpStreamEnd:   ClassStreamCtl,
		OpHalt:        ClassHalt,
	}
	for op, want := range cases {
		if op.Class() != want {
			t.Errorf("%v.Class() = %v, want %v", op, op.Class(), want)
		}
	}
}

func TestIsStream(t *testing.T) {
	for op := OpInvalid + 1; op < opCount; op++ {
		want := op >= OpStreamLoad && op <= OpStreamCsrR
		if op.IsStream() != want {
			t.Errorf("%v.IsStream() = %v, want %v", op, op.IsStream(), want)
		}
	}
}

// TestLookup: every mnemonic names its op, and nothing else is one.
func TestLookup(t *testing.T) {
	for _, op := range Ops() {
		if got, ok := Lookup(op.String()); !ok || got != op {
			t.Errorf("Lookup(%q) = %v, %v", op.String(), got, ok)
		}
	}
	for _, name := range []string{"invalid", "li", "ADD", ""} {
		if op, ok := Lookup(name); ok {
			t.Errorf("Lookup(%q) = %v, want no op", name, op)
		}
	}
}

func TestRegNames(t *testing.T) {
	if RegName(0) != "zero" || RegName(2) != "sp" || RegName(10) != "a0" {
		t.Error("ABI register names wrong")
	}
	if RegName(40) != "x40" {
		t.Errorf("out-of-range RegName = %q", RegName(40))
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpAdd, Rd: 10, Rs1: 11, Rs2: 12}, "add a0, a1, a2"},
		{Inst{Op: OpAddi, Rd: 10, Rs1: 10, Imm: -4}, "addi a0, a0, -4"},
		{Inst{Op: OpLw, Rd: 5, Rs1: 2, Imm: 16}, "lw t0, 16(sp)"},
		{Inst{Op: OpSw, Rs1: 2, Rs2: 5, Imm: -8}, "sw t0, -8(sp)"},
		{Inst{Op: OpBne, Rs1: 10, Rs2: 0, Imm: -3}, "bne a0, zero, -3"},
		{Inst{Op: OpJal, Rd: 1, Imm: 5}, "jal ra, +5"},
		{Inst{Op: OpStreamLoad, Rd: 10, Stream: 2, Width: 4}, "streamload a0, s2, w4"},
		{Inst{Op: OpStreamStore, Rs2: 10, Stream: 0, Width: 1}, "streamstore s0, w1, a0"},
		{Inst{Op: OpStreamEnd, Rd: 7, Stream: 3}, "streamend t2, s3"},
		{Inst{Op: OpStreamPeek, Rd: 10, Stream: 1, Width: 2, Imm: 6}, "streampeek a0, s1, w2, 6"},
		{Inst{Op: OpStreamAdv, Stream: 0, Width: 4, Imm: 1024}, "streamadv s0, 4096"},
		{Inst{Op: OpStreamCsrR, Rd: 10, Stream: 2, Imm: CsrTail}, "streamcsrr a0, s2, csr1"},
		{Inst{Op: OpLui, Rd: 10, Imm: 0x12345}, "lui a0, 0x12345"},
		{Inst{Op: OpJalr, Rd: 0, Rs1: 1}, "jalr zero, 0(ra)"},
		{Inst{Op: OpHalt}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpAddi, Rd: 31, Rs1: 30, Imm: -16384},
		{Op: OpAddi, Rd: 1, Rs1: 1, Imm: 16383},
		{Op: OpLui, Rd: 5, Imm: 0xabcde},
		{Op: OpJal, Rd: 1, Imm: -500000},
		{Op: OpLw, Rd: 9, Rs1: 8, Imm: 2047},
		{Op: OpSw, Rs1: 8, Rs2: 9, Imm: -2048},
		{Op: OpBeq, Rs1: 4, Rs2: 5, Imm: 1000},
		{Op: OpBgeu, Rs1: 4, Rs2: 5, Imm: -1000},
		{Op: OpStreamLoad, Rd: 12, Stream: 7, Width: 4},
		{Op: OpStreamPeek, Rd: 12, Stream: 15, Width: 2, Imm: 63},
		{Op: OpStreamStore, Rs2: 20, Stream: 1, Width: 1},
		{Op: OpStreamAdv, Stream: 3, Imm: 128, Width: 1},
		{Op: OpStreamEnd, Rd: 6, Stream: 0, Width: 1},
		{Op: OpStreamCsrR, Rd: 6, Stream: 9, Imm: CsrTail, Width: 1},
		{Op: OpHalt},
		{Op: OpMulhu, Rd: 17, Rs1: 18, Rs2: 19},
	}
	for _, in := range cases {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		out, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)): %v", in, err)
		}
		if out != in {
			t.Errorf("round trip %v -> %#x -> %v", in, w, out)
		}
	}
}

// TestEncodeDecodeQuick fuzzes the round trip across randomly generated but
// well-formed instructions.
func TestEncodeDecodeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reg := func() uint8 { return uint8(rng.Intn(NumRegs)) }
	signed := func(bits int) int32 { return int32(rng.Intn(1<<bits)) - 1<<(bits-1) }
	gen := func() Inst {
		i := Inst{Op: Op(1 + rng.Intn(int(opCount)-1))}
		switch f := i.Op.Form(); f {
		case FormNone:
		case FormRRR:
			i.Rd, i.Rs1, i.Rs2 = reg(), reg(), reg()
		case FormRRI, FormLoad:
			i.Rd, i.Rs1, i.Imm = reg(), reg(), signed(iImmBits)
		case FormStore, FormBranch:
			i.Rs1, i.Rs2, i.Imm = reg(), reg(), signed(sImmBits)
		case FormU:
			i.Rd, i.Imm = reg(), int32(rng.Intn(1<<uImmBits))
		case FormJal:
			i.Rd, i.Imm = reg(), signed(uImmBits)
		default: // the stream forms
			i.Stream = uint8(rng.Intn(16))
			i.Width = []uint8{1, 2, 4}[rng.Intn(3)]
			i.Imm = signed(zImmBits)
			if f == FormStreamStore {
				i.Rs2 = reg()
			} else {
				i.Rd = reg()
			}
		}
		return i
	}
	for n := 0; n < 2000; n++ {
		in := gen()
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", in, err)
		}
		out, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(%#x): %v", w, err)
		}
		if out != in {
			t.Fatalf("round trip mismatch: %+v -> %#x -> %+v", in, w, out)
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	bad := []Inst{
		{Op: OpInvalid},
		{Op: OpAddi, Rd: 32},
		{Op: OpAddi, Imm: 1 << 20},
		{Op: OpSw, Imm: -(1 << 20)},
		{Op: OpStreamLoad, Stream: 16, Width: 4},
		{Op: OpStreamLoad, Stream: 0, Width: 3},
		{Op: OpLui, Imm: -1},
	}
	for _, b := range bad {
		if _, err := Encode(b); err == nil {
			t.Errorf("Encode(%+v) succeeded, want error", b)
		}
	}
}

func TestDecodeRejectsInvalidOpcode(t *testing.T) {
	if _, err := Decode(uint32(opCount) | 0x40); err == nil && Op(uint32(opCount)|0x40).Valid() {
		t.Error("expected invalid")
	}
	if _, err := Decode(0); err == nil {
		t.Error("Decode(0) should fail (OpInvalid)")
	}
}

func TestSignExtendProperty(t *testing.T) {
	prop := func(v int16) bool {
		// any 15-bit value survives the S-layout split
		imm := int32(v) / 2 // keep within 15 bits
		in := Inst{Op: OpSw, Rs1: 1, Rs2: 2, Imm: imm}
		w, err := Encode(in)
		if err != nil {
			return true // out of range immediates are rejected, fine
		}
		out, err := Decode(w)
		return err == nil && out.Imm == imm
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDisassemblyMentionsStreamSlot(t *testing.T) {
	i := Inst{Op: OpStreamCsrR, Rd: 3, Stream: 5, Imm: CsrHead}
	if s := i.String(); !strings.Contains(s, "s5") {
		t.Errorf("disassembly %q lacks stream slot", s)
	}
}
