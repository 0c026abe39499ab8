package kernels

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"assasin/internal/asm"
)

func trainData(k LinearTrain, records int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	in, _, _ := k.dims()
	rec := k.RecordSize()
	data := make([]byte, records*rec)
	for r := 0; r < records; r++ {
		base := r * rec
		var sum int32
		for j := 0; j < in; j++ {
			x := int32(rng.Intn(64))
			binary.LittleEndian.PutUint32(data[base+4*j:], uint32(x))
			sum += x * int32(j%5)
		}
		// A noisy linear label keeps gradients meaningful.
		y := sum>>2 + int32(rng.Intn(16))
		binary.LittleEndian.PutUint32(data[base+4*in:], uint32(y))
	}
	return data
}

func TestTrainWeightsMatchReference(t *testing.T) {
	k := LinearTrain{In: 8}
	data := trainData(k, 300, 1)
	wantW, wantN := k.TrainRef(data)
	for _, style := range []Style{StyleStream, StyleSoftware} {
		_, core := runStandalone(t, k, style, [][]byte{data})
		if got := core.Reg(asm.S3); got != wantN {
			t.Fatalf("%v: records %d, want %d", style, got, wantN)
		}
		img, err := core.Sys().Scratchpad.Bytes(0, 4*8)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			got := int32(binary.LittleEndian.Uint32(img[4*j:]))
			if got != wantW[j] {
				t.Fatalf("%v: w[%d] = %d, want %d", style, j, got, wantW[j])
			}
		}
	}
}

func TestTrainConvergesDirectionally(t *testing.T) {
	// On y = 8*x0 exactly, SGD must move w0 well above the other weights.
	k := LinearTrain{In: 4, Shift: 4, LrShift: 10}
	rng := rand.New(rand.NewSource(2))
	rec := k.RecordSize()
	data := make([]byte, 500*rec)
	for r := 0; r < 500; r++ {
		base := r * rec
		x0 := int32(1 + rng.Intn(32))
		binary.LittleEndian.PutUint32(data[base:], uint32(x0))
		for j := 1; j < 4; j++ {
			binary.LittleEndian.PutUint32(data[base+4*j:], uint32(rng.Intn(4)))
		}
		binary.LittleEndian.PutUint32(data[base+16:], uint32(8*x0))
	}
	w, _ := k.TrainRef(data)
	if w[0] <= 2*w[1] || w[0] <= 2*w[2] {
		t.Fatalf("SGD did not weight the informative feature: %v", w)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := (LinearTrain{In: 64}).Build(BuildParams{}); err == nil {
		t.Error("oversized model accepted")
	}
}
