package kernels

import (
	"fmt"

	"assasin/internal/asm"
	"assasin/internal/gf"
)

// RAID4 is the XOR-parity erasure-coding offload of Fig. 13: K data streams
// in, one parity stream out. It is stateless and memory-intensive — the
// paper's second-lowest compute-intensity kernel.
type RAID4 struct {
	// K is the number of data streams (default 4).
	K int
}

func (k RAID4) width() int {
	if k.K > 0 {
		return k.K
	}
	return 4
}

// Name implements Kernel.
func (RAID4) Name() string { return "raid4" }

// Inputs implements Kernel.
func (k RAID4) Inputs() int { return k.width() }

// Outputs implements Kernel.
func (RAID4) Outputs() int { return 1 }

// State implements Kernel.
func (RAID4) State() []byte { return nil }

// Build implements Kernel.
func (k RAID4) Build(p BuildParams) (*asm.Program, error) {
	n := k.width()
	if n < 2 || n > 4 {
		return nil, fmt.Errorf("kernels: raid4 supports 2-4 data streams, got %d", n)
	}
	b := asm.New()
	dataRegs := []asm.Reg{asm.A1, asm.A2, asm.A3, asm.A4}
	switch p.Style {
	case StyleStream:
		loop := b.Here()
		for i := 0; i < n; i++ {
			b.StreamLoad(dataRegs[i], uint8(i), 4)
		}
		for i := 1; i < n; i++ {
			b.Xor(asm.A1, asm.A1, dataRegs[i])
		}
		b.StreamStore(0, 4, asm.A1)
		b.J(loop)
	default:
		// Blocked software loop: a page-sized inner loop without release
		// checks, then a per-page epilogue releasing every input window.
		ptrs := []asm.Reg{asm.S2, asm.S3, asm.S4, asm.S5}
		for i := 0; i < n; i++ {
			b.Li(ptrs[i], inViewBase(uint8(i)))
		}
		b.Li(asm.S6, outViewBase(0))
		// A0 = per-stream length; S8 = page size; T3 = chunk; S7 = inner end.
		b.Li(asm.S8, int32(p.PageSize))
		outer := b.Here()
		done := b.NewLabel()
		b.Beq(asm.A0, asm.Zero, done)
		b.Mv(asm.T3, asm.S8)
		full := b.NewLabel()
		b.Bgeu(asm.A0, asm.S8, full)
		b.Mv(asm.T3, asm.A0)
		b.Bind(full)
		b.Add(asm.S7, ptrs[0], asm.T3)
		inner := b.Here()
		for i := 0; i < n; i++ {
			b.Lw(dataRegs[i], ptrs[i], 0)
		}
		for i := 1; i < n; i++ {
			b.Xor(asm.A1, asm.A1, dataRegs[i])
		}
		b.Sw(asm.A1, asm.S6, 0)
		for i := 0; i < n; i++ {
			b.Addi(ptrs[i], ptrs[i], 4)
		}
		b.Addi(asm.S6, asm.S6, 4)
		b.Bltu(ptrs[0], asm.S7, inner)
		// Release a full page on every input window.
		partial := b.NewLabel()
		b.Bne(asm.T3, asm.S8, partial)
		for i := 0; i < n; i++ {
			b.StreamAdv(uint8(i), int32(p.PageSize))
		}
		b.Bind(partial)
		b.Sub(asm.A0, asm.A0, asm.T3)
		b.J(outer)
		b.Bind(done)
		b.Halt()
	}
	return assemble(b, "raid4", p.Style)
}

// Reference implements Kernel.
func (k RAID4) Reference(inputs [][]byte) ([][]byte, error) {
	n := k.width()
	if err := checkInputs(k.Name(), inputs, n); err != nil {
		return nil, err
	}
	parity := make([]byte, len(inputs[0]))
	copy(parity, inputs[0])
	for i := 1; i < n; i++ {
		if len(inputs[i]) != len(parity) {
			return nil, fmt.Errorf("kernels: raid4 stream lengths differ")
		}
		for j, v := range inputs[i] {
			parity[j] ^= v
		}
	}
	return [][]byte{parity}, nil
}

// RAID6 computes P+Q parity over K data streams: P is XOR, Q is the
// Reed-Solomon syndrome Σ g^i·d_i over GF(2^8). The Galois-field log/exp
// tables are the kernel's function state, resident in the scratchpad
// (Table II "Galois Field (GF) table") — every input byte makes two table
// lookups, which is what the paper's Fig. 20 scratchpad-latency discussion
// is about.
type RAID6 struct {
	K int
}

func (k RAID6) width() int {
	if k.K > 0 {
		return k.K
	}
	return 4
}

// Name implements Kernel.
func (RAID6) Name() string { return "raid6" }

// Inputs implements Kernel.
func (k RAID6) Inputs() int { return k.width() }

// Outputs implements Kernel: P and Q.
func (RAID6) Outputs() int { return 2 }

// raid6StateSize: exp table doubled (512) + log table (256).
const raid6ExpOff = 0
const raid6LogOff = 512

// State implements Kernel: exp[512] then log[256]. The doubled exp table
// removes the mod-255 from the inner loop, the standard software trick.
func (RAID6) State() []byte {
	img := make([]byte, 768)
	exp, log := gf.Tables()
	copy(img[raid6ExpOff:], exp[:])
	copy(img[raid6ExpOff+255:], exp[:]) // second period: exp[i+255] = exp[i]
	copy(img[raid6LogOff:], log[:])
	return img
}

// Build implements Kernel.
func (k RAID6) Build(p BuildParams) (*asm.Program, error) {
	n := k.width()
	if n < 2 || n > 4 {
		return nil, fmt.Errorf("kernels: raid6 supports 2-4 data streams, got %d", n)
	}
	b := asm.New()
	// S1 = exp base, S9 = log base (function state pointers).
	b.Li(asm.S1, int32(p.StateBase)+raid6ExpOff)
	b.Li(asm.S9, int32(p.StateBase)+raid6LogOff)

	// emitQ folds data byte in reg d into q (A6) via the GF tables;
	// stream i>0 multiplies by g^i, stream 0 by 1 (plain XOR).
	emitQ := func(d asm.Reg, i int) {
		if i == 0 {
			b.Xor(asm.A6, asm.A6, d)
			return
		}
		skip := b.NewLabel()
		b.Beq(d, asm.Zero, skip)
		b.Add(asm.T0, asm.S9, d)         // &log[d]
		b.Lbu(asm.T0, asm.T0, 0)         // log[d]
		b.Addi(asm.T0, asm.T0, int32(i)) // + log(g^i) = i
		b.Add(asm.T0, asm.S1, asm.T0)
		b.Lbu(asm.T0, asm.T0, 0) // exp[...]
		b.Xor(asm.A6, asm.A6, asm.T0)
		b.Bind(skip)
	}

	switch p.Style {
	case StyleStream:
		loop := b.Here()
		b.Li(asm.A5, 0) // p
		b.Li(asm.A6, 0) // q
		for i := 0; i < n; i++ {
			b.StreamLoad(asm.A1, uint8(i), 1)
			b.Xor(asm.A5, asm.A5, asm.A1)
			emitQ(asm.A1, i)
		}
		b.StreamStore(0, 1, asm.A5)
		b.StreamStore(1, 1, asm.A6)
		b.J(loop)
	default:
		ptrs := []asm.Reg{asm.S2, asm.S3, asm.S4, asm.S5}
		for i := 0; i < n; i++ {
			b.Li(ptrs[i], inViewBase(uint8(i)))
		}
		b.Li(asm.S6, outViewBase(0)) // P out
		b.Li(asm.S7, outViewBase(1)) // Q out
		b.Li(asm.S8, int32(p.PageSize))
		// A0 = per-stream length; T3 = chunk; T4 = inner end.
		outer := b.Here()
		done := b.NewLabel()
		b.Beq(asm.A0, asm.Zero, done)
		b.Mv(asm.T3, asm.S8)
		full := b.NewLabel()
		b.Bgeu(asm.A0, asm.S8, full)
		b.Mv(asm.T3, asm.A0)
		b.Bind(full)
		b.Add(asm.T4, ptrs[0], asm.T3)
		inner := b.Here()
		b.Li(asm.A5, 0)
		b.Li(asm.A6, 0)
		for i := 0; i < n; i++ {
			b.Lbu(asm.A1, ptrs[i], 0)
			b.Xor(asm.A5, asm.A5, asm.A1)
			emitQ(asm.A1, i)
		}
		b.Sb(asm.A5, asm.S6, 0)
		b.Sb(asm.A6, asm.S7, 0)
		for i := 0; i < n; i++ {
			b.Addi(ptrs[i], ptrs[i], 1)
		}
		b.Addi(asm.S6, asm.S6, 1)
		b.Addi(asm.S7, asm.S7, 1)
		b.Bltu(ptrs[0], asm.T4, inner)
		partial := b.NewLabel()
		b.Bne(asm.T3, asm.S8, partial)
		for i := 0; i < n; i++ {
			b.StreamAdv(uint8(i), int32(p.PageSize))
		}
		b.Bind(partial)
		b.Sub(asm.A0, asm.A0, asm.T3)
		b.J(outer)
		b.Bind(done)
		b.Halt()
	}
	return assemble(b, "raid6", p.Style)
}

// Reference implements Kernel.
func (k RAID6) Reference(inputs [][]byte) ([][]byte, error) {
	n := k.width()
	if err := checkInputs(k.Name(), inputs, n); err != nil {
		return nil, err
	}
	length := len(inputs[0])
	pOut := make([]byte, length)
	qOut := make([]byte, length)
	for i := 0; i < n; i++ {
		if len(inputs[i]) != length {
			return nil, fmt.Errorf("kernels: raid6 stream lengths differ")
		}
		coef := gf.Exp(i)
		for j, v := range inputs[i] {
			pOut[j] ^= v
			qOut[j] ^= gf.Mul(coef, v)
		}
	}
	return [][]byte{pOut, qOut}, nil
}
