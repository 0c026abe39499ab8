package kernels

import (
	"encoding/binary"
	"fmt"

	"assasin/internal/aes"
	"assasin/internal/asm"
)

// AES is the AES-128-ECB encryption offload of Fig. 13: the classic
// T-table software implementation, with the expanded round keys, S-box and
// four T-tables (~17 KiB) held as function state in the scratchpad. At
// roughly a thousand instructions per 16-byte block it is the paper's most
// compute-intensive kernel — the case where ASSASIN's memory-system
// advantages matter least.
type AES struct {
	// Key is the 16-byte AES key (zero key if empty).
	Key []byte
}

// State image layout (offsets from StateBase).
const (
	aesRkOff   = 0     // 44 round-key words, little-endian
	aesSboxOff = 256   // 256-byte S-box
	aesTeOff   = 512   // 4 T-tables × 1024 words
	aesTeSize  = 4096  // bytes per T-table
	aesImgSize = 16896 // total state bytes
)

func (k AES) key() []byte {
	if len(k.Key) == aes.KeySize {
		return k.Key
	}
	return make([]byte, aes.KeySize)
}

// Name implements Kernel.
func (AES) Name() string { return "aes" }

// Inputs implements Kernel.
func (AES) Inputs() int { return 1 }

// Outputs implements Kernel.
func (AES) Outputs() int { return 1 }

// State implements Kernel.
func (k AES) State() []byte {
	c, err := aes.New(k.key())
	if err != nil {
		panic(err)
	}
	rk, te, sbox := c.Tables()
	img := make([]byte, aesImgSize)
	for i, w := range rk {
		binary.LittleEndian.PutUint32(img[aesRkOff+4*i:], w)
	}
	copy(img[aesSboxOff:], sbox[:])
	for t := 0; t < 4; t++ {
		base := aesTeOff + t*aesTeSize
		for i, w := range te[t] {
			binary.LittleEndian.PutUint32(img[base+4*i:], w)
		}
	}
	return img
}

// Build implements Kernel. Register allocation:
//
//	S1          state base
//	S2-S5       current state words s0-s3 (big-endian packed, as in FIPS-197)
//	S6-S9       next state words
//	T0, T1      index/scratch
//	A1          loaded byte
//	S10/S11/A7  input ptr / release threshold / end (software style)
//	S0          output ptr (software style)
func (k AES) Build(p BuildParams) (*asm.Program, error) {
	b := asm.New()
	b.Li(asm.S1, int32(p.StateBase))

	io := newStreamIO(b, p, asm.A7, 1)

	// rkXor emits dest ^= roundKey[word].
	rkXor := func(dest asm.Reg, word int) {
		b.Lw(asm.T1, asm.S1, int32(aesRkOff+4*word))
		b.Xor(dest, dest, asm.T1)
	}

	blockStart := io.top()

	// Load one 16-byte block into S2-S5, big-endian packed: word w =
	// b[4w]<<24 | b[4w+1]<<16 | b[4w+2]<<8 | b[4w+3].
	state := []asm.Reg{asm.S2, asm.S3, asm.S4, asm.S5}
	next := []asm.Reg{asm.S6, asm.S7, asm.S8, asm.S9}
	for w := 0; w < 4; w++ {
		for i := 0; i < 4; i++ {
			io.load(asm.A1, 1, int32(4*w+i))
			if i == 0 {
				b.Slli(state[w], asm.A1, 24)
			} else if i < 3 {
				b.Slli(asm.A1, asm.A1, int32(24-8*i))
				b.Or(state[w], state[w], asm.A1)
			} else {
				b.Or(state[w], state[w], asm.A1)
			}
		}
		rkXor(state[w], w) // AddRoundKey round 0
	}

	// Rounds 1..9: t[w] = te0[s(w)>>24] ^ te1[s(w+1)>>16&ff] ^
	// te2[s(w+2)>>8&ff] ^ te3[s(w+3)&ff] ^ rk.
	for r := 1; r <= 9; r++ {
		for w := 0; w < 4; w++ {
			dst := next[w]
			// te0 term.
			b.Srli(asm.T0, state[w], 24)
			b.Slli(asm.T0, asm.T0, 2)
			b.Add(asm.T0, asm.T0, asm.S1)
			b.Lw(dst, asm.T0, aesTeOff+0*aesTeSize)
			// te1 term.
			b.Srli(asm.T0, state[(w+1)%4], 16)
			b.Andi(asm.T0, asm.T0, 255)
			b.Slli(asm.T0, asm.T0, 2)
			b.Add(asm.T0, asm.T0, asm.S1)
			b.Lw(asm.T1, asm.T0, aesTeOff+1*aesTeSize)
			b.Xor(dst, dst, asm.T1)
			// te2 term.
			b.Srli(asm.T0, state[(w+2)%4], 8)
			b.Andi(asm.T0, asm.T0, 255)
			b.Slli(asm.T0, asm.T0, 2)
			b.Add(asm.T0, asm.T0, asm.S1)
			b.Lw(asm.T1, asm.T0, aesTeOff+2*aesTeSize)
			b.Xor(dst, dst, asm.T1)
			// te3 term.
			b.Andi(asm.T0, state[(w+3)%4], 255)
			b.Slli(asm.T0, asm.T0, 2)
			b.Add(asm.T0, asm.T0, asm.S1)
			b.Lw(asm.T1, asm.T0, aesTeOff+3*aesTeSize)
			b.Xor(dst, dst, asm.T1)
			rkXor(dst, 4*r+w)
		}
		state, next = next, state
	}

	// Final round: SubBytes + ShiftRows, no MixColumns.
	sbox := func(dst asm.Reg, src asm.Reg, shift int32, outShift int32, first bool) {
		if shift > 0 {
			b.Srli(asm.T0, src, shift)
			if shift < 24 {
				b.Andi(asm.T0, asm.T0, 255)
			}
		} else {
			b.Andi(asm.T0, src, 255)
		}
		b.Add(asm.T0, asm.T0, asm.S1)
		b.Lbu(asm.T1, asm.T0, aesSboxOff)
		if outShift > 0 {
			b.Slli(asm.T1, asm.T1, outShift)
		}
		if first {
			b.Mv(dst, asm.T1)
		} else {
			b.Or(dst, dst, asm.T1)
		}
	}
	for w := 0; w < 4; w++ {
		dst := next[w]
		sbox(dst, state[w], 24, 24, true)
		sbox(dst, state[(w+1)%4], 16, 16, false)
		sbox(dst, state[(w+2)%4], 8, 8, false)
		sbox(dst, state[(w+3)%4], 0, 0, false)
		rkXor(dst, 40+w)
	}
	state = next

	// Emit ciphertext bytes big-endian per word.
	for w := 0; w < 4; w++ {
		for i := 0; i < 4; i++ {
			shift := int32(24 - 8*i)
			if shift > 0 {
				b.Srli(asm.T0, state[w], shift)
				io.store(0, 1, asm.T0, int32(4*w+i))
			} else {
				io.store(0, 1, state[w], int32(4*w+i))
			}
		}
	}
	io.consumed(16)
	io.stored(16)
	b.J(blockStart)
	return assemble(b, "aes", p.Style)
}

// Reference implements Kernel.
func (k AES) Reference(inputs [][]byte) ([][]byte, error) {
	if err := checkInputs(k.Name(), inputs, 1); err != nil {
		return nil, err
	}
	if len(inputs[0])%aes.BlockSize != 0 {
		return nil, fmt.Errorf("kernels: aes input %d not block-aligned", len(inputs[0]))
	}
	c, err := aes.New(k.key())
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(inputs[0]))
	c.EncryptECB(out, inputs[0])
	return [][]byte{out}, nil
}
