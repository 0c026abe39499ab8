package kernels

import (
	"encoding/binary"
	"fmt"

	"assasin/internal/asm"
)

// Degree is the graph-analysis offload of Table II: it streams an edge list
// from flash while updating per-vertex statistics held in the scratchpad
// ("Edge list … while performing updates on the statistics kept in close
// memory"). The statistic here is in/out degree per vertex — the first
// pass of most vertex-centric analytics — plus a running edge count.
//
// Edge records are 8 bytes: src:u32, dst:u32, both < NumVertices. The
// output stream carries nothing; the firmware reads the vertex table from
// the scratchpad after the kernel halts (function state, like Stat's
// accumulators). The per-core tables are merged by the host.
type Degree struct {
	// NumVertices bounds vertex ids; the table needs 8 bytes per vertex
	// (default 4096 vertices = 32 KiB, half the scratchpad).
	NumVertices int
}

func (k Degree) vertices() int {
	if k.NumVertices > 0 {
		return k.NumVertices
	}
	return 4096
}

func (k Degree) check() error {
	n := k.vertices()
	if n <= 0 || n > 8192 {
		return fmt.Errorf("kernels: degree vertex count %d out of scratchpad range", n)
	}
	return nil
}

// EdgeSize is the edge record size in bytes.
const EdgeSize = 8

// Name implements Kernel.
func (Degree) Name() string { return "degree" }

// Inputs implements Kernel.
func (Degree) Inputs() int { return 1 }

// Outputs implements Kernel.
func (Degree) Outputs() int { return 0 }

// State implements Kernel: zeroed out-degree table (NumVertices u32) then
// in-degree table (NumVertices u32).
func (k Degree) State() []byte { return make([]byte, 8*k.vertices()) }

// Build implements Kernel. Register allocation:
//
//	S1 out-degree base   S2 in-degree base   A1/A2 src/dst   T0/T1 temps
//	S3 edge counter
//	S10/S11/T4 soft ptr/thresh/end
func (k Degree) Build(p BuildParams) (*asm.Program, error) {
	if err := k.check(); err != nil {
		return nil, err
	}
	b := asm.New()
	b.Li(asm.S1, int32(p.StateBase))
	b.Li(asm.S2, int32(p.StateBase)+4*int32(k.vertices()))
	io := newStreamIO(b, p, asm.T4, 0)
	bump := func(base, vreg asm.Reg) { // table[v]++
		b.Slli(asm.T0, vreg, 2)
		b.Add(asm.T0, asm.T0, base)
		b.Lw(asm.T1, asm.T0, 0)
		b.Addi(asm.T1, asm.T1, 1)
		b.Sw(asm.T1, asm.T0, 0)
	}
	loop := io.top()
	io.load(asm.A1, 4, 0)
	io.load(asm.A2, 4, 4)
	io.consumed(EdgeSize)
	bump(asm.S1, asm.A1) // out-degree[src]++
	bump(asm.S2, asm.A2) // in-degree[dst]++
	b.Addi(asm.S3, asm.S3, 1)
	b.J(loop)
	return assemble(b, "degree", p.Style)
}

// Reference implements Kernel (no output streams; tables are read from the
// scratchpad by the harness via RefTables).
func (k Degree) Reference(inputs [][]byte) ([][]byte, error) {
	if err := checkInputs(k.Name(), inputs, 1); err != nil {
		return nil, err
	}
	return nil, nil
}

// RefTables computes the expected out/in degree tables and edge count.
func (k Degree) RefTables(edges []byte) (out, in []uint32, count uint32) {
	n := k.vertices()
	out = make([]uint32, n)
	in = make([]uint32, n)
	for off := 0; off+EdgeSize <= len(edges); off += EdgeSize {
		s := binary.LittleEndian.Uint32(edges[off:])
		d := binary.LittleEndian.Uint32(edges[off+4:])
		out[s%uint32(n)]++
		in[d%uint32(n)]++
		count++
	}
	return
}

// Replicate is the replication offload of Table II: it fans one input
// stream out to two output streams ("Data & Replicates" with flag state) —
// the write-path building block of replicated stores. Copies happen inside
// the SSD, so the replica never crosses the host interface.
type Replicate struct{}

// Name implements Kernel.
func (Replicate) Name() string { return "replicate" }

// Inputs implements Kernel.
func (Replicate) Inputs() int { return 1 }

// Outputs implements Kernel: primary and replica.
func (Replicate) Outputs() int { return 2 }

// State implements Kernel.
func (Replicate) State() []byte { return nil }

// Build implements Kernel.
func (Replicate) Build(p BuildParams) (*asm.Program, error) {
	b := asm.New()
	io := newStreamIO(b, p, asm.T4, 2)
	loop := io.top()
	io.load(asm.A1, 4, 0)
	io.store(0, 4, asm.A1, 0)
	io.store(1, 4, asm.A1, 0)
	io.stored(4)
	io.consumed(4)
	b.J(loop)
	return assemble(b, "replicate", p.Style)
}

// Reference implements Kernel.
func (k Replicate) Reference(inputs [][]byte) ([][]byte, error) {
	if err := checkInputs(k.Name(), inputs, 1); err != nil {
		return nil, err
	}
	n := len(inputs[0]) &^ 3
	a := make([]byte, n)
	copy(a, inputs[0])
	c := make([]byte, n)
	copy(c, inputs[0])
	return [][]byte{a, c}, nil
}
