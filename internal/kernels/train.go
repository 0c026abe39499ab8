package kernels

import (
	"encoding/binary"
	"fmt"

	"assasin/internal/asm"
)

// LinearTrain is the NN-training offload of Table II: streaming stochastic
// gradient descent on a linear model whose weights stay stationary in the
// scratchpad while training records stream in from flash ("keep weights …
// in fast-and-close memory and streaming in the … training data").
//
// Each record is In 32-bit features followed by a 32-bit label. Per record
// the kernel computes the prediction p = (Σ w[j]·x[j]) >> Shift, the error
// e = y − p, and updates w[j] += (e·x[j]) >> LrShift — all in 32-bit
// integer arithmetic, so the simulated kernel and the reference agree
// exactly. The trained weights are read back from the scratchpad by the
// firmware after the final record (function state, like Stat's
// accumulators); S3 counts records.
type LinearTrain struct {
	// In is the feature count (default 16; at most 32).
	In int
	// Shift scales predictions (default 8).
	Shift int
	// LrShift is the learning-rate shift (default 12).
	LrShift int
}

func (k LinearTrain) dims() (in, shift, lr int) {
	in, shift, lr = k.In, k.Shift, k.LrShift
	if in <= 0 {
		in = 16
	}
	if shift <= 0 {
		shift = 8
	}
	if lr <= 0 {
		lr = 12
	}
	return
}

func (k LinearTrain) check() error {
	in, shift, lr := k.dims()
	if in > 32 {
		return fmt.Errorf("kernels: train feature count %d too large", in)
	}
	if shift > 30 || lr > 30 {
		return fmt.Errorf("kernels: train shifts out of range")
	}
	return nil
}

// RecordSize returns the training record size in bytes (features + label).
func (k LinearTrain) RecordSize() int {
	in, _, _ := k.dims()
	return 4 * (in + 1)
}

// Name implements Kernel.
func (LinearTrain) Name() string { return "train" }

// Inputs implements Kernel.
func (LinearTrain) Inputs() int { return 1 }

// Outputs implements Kernel.
func (LinearTrain) Outputs() int { return 0 }

// State implements Kernel: zero-initialized weights.
func (k LinearTrain) State() []byte {
	in, _, _ := k.dims()
	return make([]byte, 4*in)
}

// Build implements Kernel. Register allocation:
//
//	S1 weight base  S2 prediction acc  S3 record counter  A1 label/error
//	T0/T1 temps     S10/S11/T4 soft ptr/thresh/end
func (k LinearTrain) Build(p BuildParams) (*asm.Program, error) {
	if err := k.check(); err != nil {
		return nil, err
	}
	in, shift, lr := k.dims()
	b := asm.New()
	b.Li(asm.S1, int32(p.StateBase))
	io := newStreamIO(b, p, asm.T4, 0)
	feature := func(j int) { io.peek(asm.T0, 4, int32(4*j)) } // x[j] -> T0
	recStart := io.top()
	// Forward pass: S2 = Σ w[j]*x[j].
	b.Li(asm.S2, 0)
	for j := 0; j < in; j++ {
		feature(j)
		b.Lw(asm.T1, asm.S1, int32(4*j))
		b.Mul(asm.T0, asm.T0, asm.T1)
		b.Add(asm.S2, asm.S2, asm.T0)
	}
	b.Srai(asm.S2, asm.S2, int32(shift))
	// Error: A1 = y - p.
	io.peek(asm.A1, 4, int32(4*in))
	b.Sub(asm.A1, asm.A1, asm.S2)
	// Backward pass: w[j] += (e*x[j]) >> lr.
	for j := 0; j < in; j++ {
		feature(j)
		b.Mul(asm.T0, asm.T0, asm.A1)
		b.Srai(asm.T0, asm.T0, int32(lr))
		b.Lw(asm.T1, asm.S1, int32(4*j))
		b.Add(asm.T1, asm.T1, asm.T0)
		b.Sw(asm.T1, asm.S1, int32(4*j))
	}
	b.Addi(asm.S3, asm.S3, 1)
	io.skip(int32(k.RecordSize()))
	b.J(recStart)
	return assemble(b, "train", p.Style)
}

// Reference implements Kernel (no output streams; weights are checked via
// TrainRef).
func (k LinearTrain) Reference(inputs [][]byte) ([][]byte, error) {
	if err := checkInputs(k.Name(), inputs, 1); err != nil {
		return nil, err
	}
	return nil, nil
}

// TrainRef mirrors the kernel's integer SGD and returns the trained
// weights and record count.
func (k LinearTrain) TrainRef(data []byte) (weights []int32, records uint32) {
	in, shift, lr := k.dims()
	weights = make([]int32, in)
	rec := k.RecordSize()
	x := make([]int32, in)
	for off := 0; off+rec <= len(data); off += rec {
		for j := 0; j < in; j++ {
			x[j] = int32(binary.LittleEndian.Uint32(data[off+4*j:]))
		}
		y := int32(binary.LittleEndian.Uint32(data[off+4*in:]))
		var acc int32
		for j := 0; j < in; j++ {
			acc += weights[j] * x[j]
		}
		e := y - (acc >> shift)
		for j := 0; j < in; j++ {
			weights[j] += (e * x[j]) >> lr
		}
		records++
	}
	return
}
