package kernels

import (
	"encoding/binary"
	"fmt"

	"assasin/internal/asm"
)

// MLP is the neural-network inference offload of Table II: a two-layer
// perceptron whose weights stay stationary in the scratchpad ("Model
// parameters" function state) while inference records stream in from
// flash. Each record is In 32-bit features; the kernel computes
// relu(x·W1+b1)·W2+b2 in 32-bit integer arithmetic and emits one 32-bit
// score — the keep-weights-close, stream-the-data pattern the paper calls
// out for NN workloads.
type MLP struct {
	// In is the input feature count (default 16).
	In int
	// Hidden is the hidden layer width (default 16).
	Hidden int
	// Weights flattens W1 (In×Hidden), b1 (Hidden), W2 (Hidden), b2 (1).
	// Nil selects a deterministic pseudo-random model.
	Weights []int32
}

func (k MLP) dims() (in, hidden int) {
	in, hidden = k.In, k.Hidden
	if in <= 0 {
		in = 16
	}
	if hidden <= 0 {
		hidden = 16
	}
	return
}

func (k MLP) check() error {
	in, hidden := k.dims()
	if in > 32 || hidden > 32 {
		return fmt.Errorf("kernels: mlp dims %dx%d too large for the scratchpad layout", in, hidden)
	}
	if k.Weights != nil && len(k.Weights) != k.weightCount() {
		return fmt.Errorf("kernels: mlp weights %d, want %d", len(k.Weights), k.weightCount())
	}
	return nil
}

func (k MLP) weightCount() int {
	in, hidden := k.dims()
	return in*hidden + hidden + hidden + 1
}

func (k MLP) weights() []int32 {
	if k.Weights != nil {
		return k.Weights
	}
	// Small deterministic weights so 32-bit accumulation cannot overflow
	// for byte-scaled features.
	w := make([]int32, k.weightCount())
	seed := uint32(0x9E3779B9)
	for i := range w {
		seed = seed*1664525 + 1013904223
		w[i] = int32(seed%7) - 3 // -3..3
	}
	return w
}

// RecordSize returns the input record size in bytes.
func (k MLP) RecordSize() int {
	in, _ := k.dims()
	return 4 * in
}

// Name implements Kernel.
func (MLP) Name() string { return "mlp" }

// Inputs implements Kernel.
func (MLP) Inputs() int { return 1 }

// Outputs implements Kernel.
func (MLP) Outputs() int { return 1 }

// State layout: W1 row-major (hidden rows × in cols), b1, W2, b2 as LE
// int32, followed by a Hidden-word activation spill area the kernel uses
// between layers.
func (k MLP) State() []byte {
	w := k.weights()
	_, hidden := k.dims()
	img := make([]byte, 4*(len(w)+hidden))
	for i, v := range w {
		binary.LittleEndian.PutUint32(img[4*i:], uint32(v))
	}
	return img
}

func (k MLP) actOffset() int32 { return int32(4 * k.weightCount()) }

// Build implements Kernel. Layer 1 is computed one hidden unit at a time
// (features via StreamPeek / pointer loads, weights via static offsets from
// the state base); activations spill to the scratchpad; layer 2 reads them
// back. Register allocation:
//
//	S1 state base   A1 acc   T0/T1 temps   S2 feature cursor help
//	S10/S11/S5 soft ptr/thresh/end   S0 soft out ptr
func (k MLP) Build(p BuildParams) (*asm.Program, error) {
	if err := k.check(); err != nil {
		return nil, err
	}
	in, hidden := k.dims()
	b := asm.New()
	b.Li(asm.S1, int32(p.StateBase))
	io := newStreamIO(b, p, asm.S5, 1)
	w1Off := func(h, j int) int32 { return int32(4 * (h*in + j)) }
	b1Off := func(h int) int32 { return int32(4 * (hidden*in + h)) }
	w2Off := func(h int) int32 { return int32(4 * (hidden*in + hidden + h)) }
	b2Off := int32(4 * (hidden*in + hidden + hidden))

	// In the stream lowering, peeking the first feature doubles as the
	// termination check.
	recStart := io.top()
	// Layer 1: per hidden unit h, acc = b1[h] + Σ_j x[j]*W1[h][j]; relu;
	// spill to the activation area.
	for h := 0; h < hidden; h++ {
		b.Lw(asm.A1, asm.S1, b1Off(h))
		for j := 0; j < in; j++ {
			io.peek(asm.T0, 4, int32(4*j))
			b.Lw(asm.T1, asm.S1, w1Off(h, j))
			b.Mul(asm.T0, asm.T0, asm.T1)
			b.Add(asm.A1, asm.A1, asm.T0)
		}
		pos := b.NewLabel()
		b.Bge(asm.A1, asm.Zero, pos) // relu
		b.Li(asm.A1, 0)
		b.Bind(pos)
		b.Sw(asm.A1, asm.S1, k.actOffset()+int32(4*h))
	}
	// Layer 2: score = b2 + Σ_h act[h]*W2[h].
	b.Lw(asm.A1, asm.S1, b2Off)
	for h := 0; h < hidden; h++ {
		b.Lw(asm.T0, asm.S1, k.actOffset()+int32(4*h))
		b.Lw(asm.T1, asm.S1, w2Off(h))
		b.Mul(asm.T0, asm.T0, asm.T1)
		b.Add(asm.A1, asm.A1, asm.T0)
	}
	io.store(0, 4, asm.A1, 0)
	io.stored(4)
	io.skip(int32(k.RecordSize()))
	b.J(recStart)
	return assemble(b, "mlp", p.Style)
}

// Infer mirrors the kernel for one record.
func (k MLP) Infer(features []int32) int32 {
	in, hidden := k.dims()
	w := k.weights()
	w1 := w[:hidden*in]
	b1 := w[hidden*in : hidden*in+hidden]
	w2 := w[hidden*in+hidden : hidden*in+hidden+hidden]
	b2 := w[hidden*in+hidden+hidden]
	score := b2
	for h := 0; h < hidden; h++ {
		acc := b1[h]
		for j := 0; j < in; j++ {
			acc += features[j] * w1[h*in+j]
		}
		if acc < 0 {
			acc = 0
		}
		score += acc * w2[h]
	}
	return score
}

// Reference implements Kernel.
func (k MLP) Reference(inputs [][]byte) ([][]byte, error) {
	if err := checkInputs(k.Name(), inputs, 1); err != nil {
		return nil, err
	}
	if err := k.check(); err != nil {
		return nil, err
	}
	in, _ := k.dims()
	rec := k.RecordSize()
	data := inputs[0]
	var out []byte
	feats := make([]int32, in)
	for off := 0; off+rec <= len(data); off += rec {
		for j := 0; j < in; j++ {
			feats[j] = int32(binary.LittleEndian.Uint32(data[off+4*j:]))
		}
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], uint32(k.Infer(feats)))
		out = append(out, buf[:]...)
	}
	return [][]byte{out}, nil
}
