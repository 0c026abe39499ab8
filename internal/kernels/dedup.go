package kernels

import (
	"encoding/binary"
	"fmt"

	"assasin/internal/asm"
)

// Dedup is the in-storage deduplication function of Table II: it hashes
// fixed-size chunks (FNV-1a over 32-bit words) and probes an open-addressed
// signature table kept in the scratchpad ("Block metadata" function state).
// For each chunk it emits the 32-bit signature and a duplicate flag — the
// metadata a dedup store needs, with unique-chunk payloads left in place.
type Dedup struct {
	// ChunkSize is the dedup granularity in bytes (multiple of 4,
	// default 512).
	ChunkSize int
	// TableEntries sizes the signature table (power of two, default 1024).
	TableEntries int
}

// signed32 reinterprets a uint32 bit pattern as int32 (for Li immediates).
func signed32(v uint32) int32 { return int32(v) }

// FNV-1a constants (32-bit).
const (
	fnvOffset uint32 = 2166136261
	fnvPrime  uint32 = 16777619
)

func (k Dedup) chunk() int {
	if k.ChunkSize > 0 {
		return k.ChunkSize
	}
	return 512
}

func (k Dedup) entries() int {
	if k.TableEntries > 0 {
		return k.TableEntries
	}
	return 1024
}

func (k Dedup) check() error {
	if k.chunk()%4 != 0 || k.chunk() <= 0 {
		return fmt.Errorf("kernels: dedup chunk %d must be a positive multiple of 4", k.chunk())
	}
	n := k.entries()
	if n&(n-1) != 0 {
		return fmt.Errorf("kernels: dedup table %d not a power of two", n)
	}
	return nil
}

// Name implements Kernel.
func (Dedup) Name() string { return "dedup" }

// Inputs implements Kernel.
func (Dedup) Inputs() int { return 1 }

// Outputs implements Kernel.
func (Dedup) Outputs() int { return 1 }

// State implements Kernel: the signature table starts empty (zeroed). Slot
// i holds a 32-bit signature; 0 means empty (a zero signature is remapped
// by the kernel to 1, a standard trick).
func (k Dedup) State() []byte { return make([]byte, 8*k.entries()) }

// Build implements Kernel. Register allocation:
//
//	S1  table base   S2 hash        S3 probe slot addr
//	A1  loaded word  T0/T1 temps    A2 fnv prime
//	A5  words-left counter          A6 dup flag
//	S10/S11/S5 soft ptr/thresh/end  S0 soft out ptr
func (k Dedup) Build(p BuildParams) (*asm.Program, error) {
	if err := k.check(); err != nil {
		return nil, err
	}
	b := asm.New()
	b.Li(asm.S1, int32(p.StateBase))
	b.Li(asm.A2, signed32(fnvPrime))
	io := newStreamIO(b, p, asm.S5, 1)
	wordsPerChunk := int32(k.chunk() / 4)
	mask := int32(k.entries() - 1)

	chunkStart := io.top()
	// hash = FNV offset; per word: hash = (hash ^ w) * prime.
	b.Li(asm.S2, signed32(fnvOffset))
	b.Li(asm.A5, wordsPerChunk)
	hashLoop := b.Here()
	io.load(asm.A1, 4, 0)
	io.consumed(4)
	b.Xor(asm.S2, asm.S2, asm.A1)
	b.Mul(asm.S2, asm.S2, asm.A2)
	b.Addi(asm.A5, asm.A5, -1)
	b.Bne(asm.A5, asm.Zero, hashLoop)

	// Zero signatures collide with "empty": remap to 1.
	nz := b.NewLabel()
	b.Bne(asm.S2, asm.Zero, nz)
	b.Li(asm.S2, 1)
	b.Bind(nz)

	// Probe: slot = hash & mask; linear probing over {sig,count} pairs.
	// A full table (probe wraps back to the start slot) treats the chunk
	// as unique without inserting, so a saturated signature table degrades
	// gracefully instead of livelocking.
	b.Andi(asm.T0, asm.S2, mask)
	b.Slli(asm.T0, asm.T0, 3) // 8 bytes per entry
	b.Add(asm.S3, asm.S1, asm.T0)
	b.Mv(asm.A7, asm.S3) // remember the start slot
	b.Li(asm.A6, 0)      // dup flag
	probe := b.Here()
	b.Lw(asm.T1, asm.S3, 0)
	hit := b.NewLabel()
	empty := b.NewLabel()
	emit := b.NewLabel()
	b.Beq(asm.T1, asm.S2, hit)
	b.Beq(asm.T1, asm.Zero, empty)
	// Next slot, wrapping at the table end.
	b.Addi(asm.S3, asm.S3, 8)
	b.Li(asm.T0, int32(p.StateBase)+8*int32(k.entries()))
	wrapped := b.NewLabel()
	b.Bltu(asm.S3, asm.T0, wrapped)
	b.Li(asm.S3, int32(p.StateBase))
	b.Bind(wrapped)
	b.Beq(asm.S3, asm.A7, emit) // table full: bypass
	b.J(probe)

	b.Bind(hit)
	b.Li(asm.A6, 1)
	b.Lw(asm.T1, asm.S3, 4) // bump duplicate count
	b.Addi(asm.T1, asm.T1, 1)
	b.Sw(asm.T1, asm.S3, 4)
	b.J(emit)

	b.Bind(empty)
	b.Sw(asm.S2, asm.S3, 0) // insert signature

	b.Bind(emit)
	io.store(0, 4, asm.S2, 0)
	io.store(0, 1, asm.A6, 4)
	io.stored(5)
	b.J(chunkStart)
	return assemble(b, "dedup", p.Style)
}

// hashChunk mirrors the kernel's FNV-1a-over-words signature.
func (k Dedup) hashChunk(chunk []byte) uint32 {
	h := fnvOffset
	for i := 0; i+4 <= len(chunk); i += 4 {
		h = (h ^ binary.LittleEndian.Uint32(chunk[i:])) * fnvPrime
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Reference implements Kernel: per chunk, 4-byte signature + 1-byte dup
// flag, with the same open-addressed table behaviour (including collision
// probing) as the simulated kernel.
func (k Dedup) Reference(inputs [][]byte) ([][]byte, error) {
	if err := checkInputs(k.Name(), inputs, 1); err != nil {
		return nil, err
	}
	if err := k.check(); err != nil {
		return nil, err
	}
	table := make([]uint32, k.entries())
	mask := uint32(k.entries() - 1)
	in := inputs[0]
	cs := k.chunk()
	var out []byte
	for off := 0; off+cs <= len(in); off += cs {
		sig := k.hashChunk(in[off : off+cs])
		slot := sig & mask
		start := slot
		dup := byte(0)
		for {
			switch table[slot] {
			case sig:
				dup = 1
			case 0:
				table[slot] = sig
			default:
				slot = (slot + 1) & mask
				if slot == start {
					break // full table: bypass without inserting
				}
				continue
			}
			break
		}
		var buf [5]byte
		binary.LittleEndian.PutUint32(buf[:], sig)
		buf[4] = dup
		out = append(out, buf[:]...)
	}
	return [][]byte{out}, nil
}
