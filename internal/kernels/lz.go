package kernels

import (
	"fmt"
	"math/rand"

	"assasin/internal/asm"
)

// LZDecompress is the decompression offload of Table II: an LZ77-style
// token stream decoder whose sliding-window dictionary lives in the
// scratchpad ("data and dictionary indexes" function state, with the
// paper's noted explicit bound on the history size).
//
// Token format (little-endian):
//
//	0x00 <byte>                  literal
//	0x01 <dist:u16> <len:u8>     match: copy len bytes from `dist` bytes
//	                             back in the decompressed output (1 ≤ dist ≤
//	                             window, 1 ≤ len ≤ 255; overlapping copies
//	                             have the usual LZ semantics)
//
// The kernel maintains a power-of-two history ring in the scratchpad; every
// output byte is appended to the ring so later matches can reference it.
// Because the dictionary is stateful, a compressed stream cannot be split
// across cores — offloads run one stream per core.
type LZDecompress struct {
	// WindowBytes is the history size (power of two, default 4096).
	WindowBytes int
}

func (k LZDecompress) window() int {
	if k.WindowBytes > 0 {
		return k.WindowBytes
	}
	return 4096
}

func (k LZDecompress) check() error {
	w := k.window()
	if w&(w-1) != 0 || w < 256 {
		return fmt.Errorf("kernels: lz window %d must be a power of two >= 256", w)
	}
	return nil
}

// Name implements Kernel.
func (LZDecompress) Name() string { return "lz-decompress" }

// Inputs implements Kernel.
func (LZDecompress) Inputs() int { return 1 }

// Outputs implements Kernel.
func (LZDecompress) Outputs() int { return 1 }

// State implements Kernel: the zeroed history ring.
func (k LZDecompress) State() []byte { return make([]byte, k.window()) }

// Build implements Kernel. Register allocation:
//
//	S1 ring base   S2 write cursor (absolute, masked on use)
//	S3 window mask A1 token/byte   T0/T1 temps   A5 match len   A6 match pos
//	S10/S11/S5 soft ptr/thresh/end   S0 soft out ptr
func (k LZDecompress) Build(p BuildParams) (*asm.Program, error) {
	if err := k.check(); err != nil {
		return nil, err
	}
	b := asm.New()
	b.Li(asm.S1, int32(p.StateBase))
	b.Li(asm.S2, 0)
	b.Li(asm.S3, int32(k.window()-1))
	io := newStreamIO(b, p, asm.S5, 1)
	// loadByte reads the next compressed byte into the given register.
	loadByte := func(rd asm.Reg) {
		io.load(rd, 1, 0)
		io.consumed(1)
	}
	// emit writes the low byte of rs to the output stream AND appends it to
	// the history ring, advancing the cursor.
	emit := func(rs asm.Reg) {
		io.store(0, 1, rs, 0)
		io.stored(1)
		b.And(asm.T1, asm.S2, asm.S3)
		b.Add(asm.T1, asm.T1, asm.S1)
		b.Sb(rs, asm.T1, 0)
		b.Addi(asm.S2, asm.S2, 1)
	}

	tokenStart := io.top()
	loadByte(asm.A1) // flag
	match := b.NewLabel()
	b.Bne(asm.A1, asm.Zero, match)
	// Literal.
	loadByte(asm.A1)
	emit(asm.A1)
	b.J(tokenStart)

	b.Bind(match)
	loadByte(asm.T0) // dist lo
	loadByte(asm.T1) // dist hi
	b.Slli(asm.T1, asm.T1, 8)
	b.Or(asm.T0, asm.T0, asm.T1)  // dist
	loadByte(asm.A5)              // len
	b.Sub(asm.A6, asm.S2, asm.T0) // source cursor = write cursor - dist
	copyLoop := b.Here()
	b.And(asm.T1, asm.A6, asm.S3)
	b.Add(asm.T1, asm.T1, asm.S1)
	b.Lbu(asm.A1, asm.T1, 0)
	emit(asm.A1)
	b.Addi(asm.A6, asm.A6, 1)
	b.Addi(asm.A5, asm.A5, -1)
	b.Bne(asm.A5, asm.Zero, copyLoop)
	b.J(tokenStart)
	return assemble(b, "lz", p.Style)
}

// Reference implements Kernel.
func (k LZDecompress) Reference(inputs [][]byte) ([][]byte, error) {
	if err := checkInputs(k.Name(), inputs, 1); err != nil {
		return nil, err
	}
	if err := k.check(); err != nil {
		return nil, err
	}
	in := inputs[0]
	var out []byte
	for i := 0; i < len(in); {
		switch in[i] {
		case 0:
			if i+1 >= len(in) {
				return nil, fmt.Errorf("kernels: truncated literal at %d", i)
			}
			out = append(out, in[i+1])
			i += 2
		case 1:
			if i+3 >= len(in) {
				return nil, fmt.Errorf("kernels: truncated match at %d", i)
			}
			dist := int(in[i+1]) | int(in[i+2])<<8
			length := int(in[i+3])
			if dist <= 0 || dist > k.window() || dist > len(out) || length == 0 {
				return nil, fmt.Errorf("kernels: bad match dist=%d len=%d at %d", dist, length, i)
			}
			for j := 0; j < length; j++ {
				out = append(out, out[len(out)-dist])
			}
			i += 4
		default:
			return nil, fmt.Errorf("kernels: bad flag %d at %d", in[i], i)
		}
	}
	return [][]byte{out}, nil
}

// Compress produces a valid token stream for data using a greedy hash-chain
// matcher bounded by the kernel's window — the host-side encoder whose
// output the in-SSD kernel decompresses.
func (k LZDecompress) Compress(data []byte) []byte {
	win := k.window()
	var out []byte
	// Map from 3-byte prefix hash to recent positions.
	last := map[uint32]int{}
	h3 := func(i int) uint32 {
		return uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16
	}
	for i := 0; i < len(data); {
		bestLen, bestDist := 0, 0
		if i+3 <= len(data) {
			if j, ok := last[h3(i)]; ok && i-j <= win && i-j >= 1 {
				l := 0
				for i+l < len(data) && l < 255 && data[j+l%(i-j)] == data[i+l] {
					l++
				}
				if l >= 4 {
					bestLen, bestDist = l, i-j
				}
			}
		}
		if i+3 <= len(data) {
			last[h3(i)] = i
		}
		if bestLen > 0 {
			out = append(out, 1, byte(bestDist), byte(bestDist>>8), byte(bestLen))
			i += bestLen
		} else {
			out = append(out, 0, data[i])
			i++
		}
	}
	return out
}

// CompressibleData builds seed-deterministic data with realistic repetition
// so Compress finds matches (for tests and benchmarks).
func CompressibleData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := make([][]byte, 32)
	for i := range words {
		w := make([]byte, 4+rng.Intn(12))
		rng.Read(w)
		words[i] = w
	}
	var out []byte
	for len(out) < n {
		out = append(out, words[rng.Intn(len(words))]...)
	}
	return out[:n]
}
