package kernels

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

func TestDedupFlagsDuplicates(t *testing.T) {
	k := Dedup{ChunkSize: 64, TableEntries: 64}
	// Three unique chunks with chunk 0 repeated twice more.
	base := randBytes(64*3, 11)
	input := append(append(append([]byte{}, base...), base[:64]...), base[:64]...)
	ref, err := k.Reference([][]byte{input})
	if err != nil {
		t.Fatal(err)
	}
	// Expect 5 chunks × 5 bytes; last two flagged duplicate.
	if len(ref[0]) != 25 {
		t.Fatalf("ref output %d bytes", len(ref[0]))
	}
	if ref[0][4] != 0 || ref[0][19] != 1 || ref[0][24] != 1 {
		t.Fatalf("dup flags wrong: % x", ref[0])
	}
	// Repeated chunk keeps the same signature.
	sig0 := binary.LittleEndian.Uint32(ref[0][0:])
	sig3 := binary.LittleEndian.Uint32(ref[0][15:])
	if sig0 != sig3 {
		t.Fatal("signatures differ for identical chunks")
	}
	checkAgainstReference(t, k, [][]byte{input})
}

func TestDedupCollisionProbing(t *testing.T) {
	// A tiny table forces collisions; the kernel and reference must agree
	// on linear-probe behaviour exactly.
	k := Dedup{ChunkSize: 16, TableEntries: 8}
	input := randBytes(16*64, 12) // 64 chunks into 8 slots
	checkAgainstReference(t, k, [][]byte{input})
}

func TestDedupValidation(t *testing.T) {
	if _, err := (Dedup{ChunkSize: 10}).Build(BuildParams{Style: StyleStream, PageSize: testPageSize}); err == nil {
		t.Error("chunk 10 accepted")
	}
	if _, err := (Dedup{TableEntries: 100}).Build(BuildParams{Style: StyleStream, PageSize: testPageSize}); err == nil {
		t.Error("non-power-of-two table accepted")
	}
}

func TestMLPMatchesReference(t *testing.T) {
	k := MLP{In: 8, Hidden: 8}
	rec := k.RecordSize()
	data := make([]byte, 40*rec)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i+4 <= len(data); i += 4 {
		binary.LittleEndian.PutUint32(data[i:], uint32(rng.Intn(256)))
	}
	checkAgainstReference(t, k, [][]byte{data})
}

func TestMLPInferDeterministic(t *testing.T) {
	k := MLP{}
	feats := make([]int32, 16)
	for i := range feats {
		feats[i] = int32(i)
	}
	a := k.Infer(feats)
	b := k.Infer(feats)
	if a != b {
		t.Fatal("inference nondeterministic")
	}
	// ReLU matters: a strongly negative input must differ from its clamp.
	neg := make([]int32, 16)
	for i := range neg {
		neg[i] = -1000
	}
	_ = k.Infer(neg) // must not panic/overflow
}

func TestMLPCustomWeights(t *testing.T) {
	// Identity-ish model: one input, one hidden unit, unit weights.
	k := MLP{In: 1, Hidden: 1, Weights: []int32{2, 1, 3, 5}}
	// score = b2 + relu(x*2 + 1) * 3, x=4 → 5 + 9*3 = 32.
	if got := k.Infer([]int32{4}); got != 32 {
		t.Fatalf("Infer = %d, want 32", got)
	}
	var rec [4]byte
	binary.LittleEndian.PutUint32(rec[:], 4)
	outs, _ := runStandalone(t, k, StyleStream, [][]byte{rec[:]})
	if got := binary.LittleEndian.Uint32(outs[0]); got != 32 {
		t.Fatalf("kernel = %d, want 32", got)
	}
}

func TestMLPValidation(t *testing.T) {
	if _, err := (MLP{In: 64}).Build(BuildParams{}); err == nil {
		t.Error("oversized MLP accepted")
	}
	if _, err := (MLP{Weights: []int32{1}}).Build(BuildParams{}); err == nil {
		t.Error("wrong weight count accepted")
	}
}

func TestLZRoundTrip(t *testing.T) {
	k := LZDecompress{}
	original := CompressibleData(20000, 14)
	compressed := k.Compress(original)
	if len(compressed) >= len(original) {
		t.Fatalf("no compression: %d -> %d", len(original), len(compressed))
	}
	ref, err := k.Reference([][]byte{compressed})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref[0], original) {
		t.Fatal("reference decompression wrong")
	}
	// Simulated kernel agrees, in both lowerings.
	for _, style := range []Style{StyleStream, StyleSoftware} {
		outs, _ := runStandalone(t, k, style, [][]byte{compressed})
		if !bytes.Equal(outs[0], original) {
			t.Fatalf("lz/%v output mismatch (%d vs %d bytes)", style, len(outs[0]), len(original))
		}
	}
}

func TestLZIncompressibleLiterals(t *testing.T) {
	k := LZDecompress{}
	original := randBytes(512, 15)
	compressed := k.Compress(original)
	ref, err := k.Reference([][]byte{compressed})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref[0], original) {
		t.Fatal("literal-only stream wrong")
	}
}

func TestLZOverlappingMatch(t *testing.T) {
	// RLE-style overlapping copy: dist 1, len 10 replicates a byte.
	k := LZDecompress{}
	stream := []byte{0, 'A', 1, 1, 0, 10}
	ref, err := k.Reference([][]byte{stream})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{'A'}, 11)
	if !bytes.Equal(ref[0], want) {
		t.Fatalf("overlap copy = %q", ref[0])
	}
	outs, _ := runStandalone(t, k, StyleStream, [][]byte{stream})
	if !bytes.Equal(outs[0], want) {
		t.Fatalf("kernel overlap copy = %q", outs[0])
	}
}

func TestLZRejectsCorruptStreams(t *testing.T) {
	k := LZDecompress{}
	bad := [][]byte{
		{2},          // unknown flag
		{0},          // truncated literal
		{1, 1, 0},    // truncated match
		{1, 5, 0, 3}, // dist beyond output
		{1, 0, 0, 3}, // zero dist
	}
	for i, s := range bad {
		if _, err := k.Reference([][]byte{s}); err == nil {
			t.Errorf("corrupt stream %d accepted", i)
		}
	}
}

func TestLZValidation(t *testing.T) {
	if _, err := (LZDecompress{WindowBytes: 100}).Build(BuildParams{}); err == nil {
		t.Error("non-power-of-two window accepted")
	}
}

func TestNewKernelsMetadata(t *testing.T) {
	for _, k := range []Kernel{Dedup{}, MLP{}, LZDecompress{}} {
		if k.Name() == "" || k.Inputs() != 1 || k.Outputs() != 1 {
			t.Errorf("%T metadata wrong", k)
		}
		for _, style := range []Style{StyleStream, StyleSoftware} {
			p, err := k.Build(BuildParams{Style: style, PageSize: testPageSize, StateBase: 0x1000_0000})
			if err != nil {
				t.Fatalf("%T/%v: %v", k, style, err)
			}
			if _, err := p.Encode(); err != nil {
				t.Errorf("%T/%v does not encode: %v", k, style, err)
			}
		}
	}
}
