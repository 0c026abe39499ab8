package kernels

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"assasin/internal/asm"
)

func makeEdges(n, vertices int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n*EdgeSize)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(out[i*EdgeSize:], uint32(rng.Intn(vertices)))
		binary.LittleEndian.PutUint32(out[i*EdgeSize+4:], uint32(rng.Intn(vertices)))
	}
	return out
}

func TestDegreeTables(t *testing.T) {
	k := Degree{NumVertices: 256}
	edges := makeEdges(2000, 256, 1)
	wantOut, wantIn, wantCount := k.RefTables(edges)
	for _, style := range []Style{StyleStream, StyleSoftware} {
		_, core := runStandalone(t, k, style, [][]byte{edges})
		if got := core.Reg(asm.S3); got != wantCount {
			t.Fatalf("%v: edge count %d, want %d", style, got, wantCount)
		}
		// Tables live in the scratchpad (function state the firmware reads
		// back after the core halts).
		img, err := core.Sys().Scratchpad.Bytes(0, 8*256)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 256; v++ {
			gotOut := binary.LittleEndian.Uint32(img[4*v:])
			gotIn := binary.LittleEndian.Uint32(img[4*256+4*v:])
			if gotOut != wantOut[v] || gotIn != wantIn[v] {
				t.Fatalf("%v: vertex %d degrees (%d,%d), want (%d,%d)", style, v, gotOut, gotIn, wantOut[v], wantIn[v])
			}
		}
	}
}

func TestDegreeConservation(t *testing.T) {
	// Σ out-degree == Σ in-degree == edge count: a graph invariant.
	k := Degree{NumVertices: 128}
	edges := makeEdges(777, 128, 2)
	out, in, count := k.RefTables(edges)
	var so, si uint32
	for v := range out {
		so += out[v]
		si += in[v]
	}
	if so != count || si != count {
		t.Fatalf("degree sums %d/%d != edges %d", so, si, count)
	}
}

func TestDegreeValidation(t *testing.T) {
	if _, err := (Degree{NumVertices: 1 << 20}).Build(BuildParams{}); err == nil {
		t.Error("oversized vertex table accepted")
	}
}

func TestReplicateFanout(t *testing.T) {
	data := randBytes(4096, 3)
	k := Replicate{}
	checkAgainstReference(t, k, [][]byte{data})
	// Both outputs equal the input.
	outs, _ := runStandalone(t, k, StyleStream, [][]byte{data})
	if !bytes.Equal(outs[0], data) || !bytes.Equal(outs[1], data) {
		t.Fatal("replica diverges from primary")
	}
}
