package kernels

import (
	"encoding/binary"

	"assasin/internal/asm"
)

// Scan is the dummy scalability workload of Figs. 16-18: each core scans
// every byte of its input, producing no output stream. With the stream ISA
// the inner loop is one StreamLoad per byte (plus an amortized loop jump),
// so a 1 GHz core that always has data approaches 1 GB/s — which is what
// makes 8 cores exactly saturate the 8 GB/s flash array. Verification is by
// consumed byte count (cpu.Stats.StreamInBytes / the final pointer for the
// software lowering).
type Scan struct {
	// Unroll is the inner-loop unrolling factor (default 16).
	Unroll int
}

// Name implements Kernel.
func (Scan) Name() string { return "scan" }

// Inputs implements Kernel.
func (Scan) Inputs() int { return 1 }

// Outputs implements Kernel.
func (Scan) Outputs() int { return 0 }

// State implements Kernel (stateless).
func (Scan) State() []byte { return nil }

func (k Scan) unroll() int {
	if k.Unroll > 0 {
		return k.Unroll
	}
	return 16
}

// Build implements Kernel.
func (k Scan) Build(p BuildParams) (*asm.Program, error) {
	b := asm.New()
	u := k.unroll()
	switch p.Style {
	case StyleStream:
		loop := b.Here()
		for i := 0; i < u; i++ {
			b.StreamLoad(asm.A1, 0, 1)
		}
		b.J(loop)
	default:
		// Bottom-tested: the end check closes the unrolled block.
		io := newStreamIO(b, p, asm.S5, 0)
		loop := b.Here()
		for i := 0; i < u; i++ {
			io.load(asm.A1, 1, int32(i))
		}
		io.consumed(int32(u))
		b.Bltu(softInPtr, asm.S5, loop)
		b.Halt()
	}
	return assemble(b, "scan", p.Style)
}

// Reference implements Kernel: no outputs; verification is by byte count.
func (k Scan) Reference(inputs [][]byte) ([][]byte, error) {
	if err := checkInputs(k.Name(), inputs, 1); err != nil {
		return nil, err
	}
	return nil, nil
}

// Stat is the Statistics offload of Fig. 13: it sums a column of 32-bit
// little-endian integers streamed from flash, keeping the accumulator as
// function state in a register (the paper's Table II "Accumulators"). The
// per-core partial sum is returned in S0; the host reduces across cores.
type Stat struct{}

// Name implements Kernel.
func (Stat) Name() string { return "stat" }

// Inputs implements Kernel.
func (Stat) Inputs() int { return 1 }

// Outputs implements Kernel.
func (Stat) Outputs() int { return 0 }

// State implements Kernel.
func (Stat) State() []byte { return nil }

// Build implements Kernel.
func (Stat) Build(p BuildParams) (*asm.Program, error) {
	b := asm.New()
	switch p.Style {
	case StyleStream:
		loop := b.Here()
		b.StreamLoad(asm.A1, 0, 4)
		b.Add(asm.S0, asm.S0, asm.A1)
		b.J(loop)
	default:
		// Bottom-tested, like Scan.
		io := newStreamIO(b, p, asm.S5, 0)
		loop := b.Here()
		io.load(asm.A1, 4, 0)
		b.Add(asm.S0, asm.S0, asm.A1)
		io.consumed(4)
		b.Bltu(softInPtr, asm.S5, loop)
		b.Halt()
	}
	return assemble(b, "stat", p.Style)
}

// Reference implements Kernel (no output streams).
func (k Stat) Reference(inputs [][]byte) ([][]byte, error) {
	if err := checkInputs(k.Name(), inputs, 1); err != nil {
		return nil, err
	}
	return nil, nil
}

// RefSum returns the expected S0 (32-bit wrapping sum of LE words).
func (Stat) RefSum(input []byte) uint32 {
	var s uint32
	for i := 0; i+4 <= len(input); i += 4 {
		s += binary.LittleEndian.Uint32(input[i:])
	}
	return s
}
