package benchmark

import (
	"testing"
	"time"
)

// TestCalibrator checks that calibration waits for a chunk of op time,
// spends about calShare of it, always runs at least one unit, and keeps its
// heap ordered.
func TestCalibrator(t *testing.T) {
	c := newCalibrator()
	c.after(calChunk / 2)
	if c.units != 0 {
		t.Fatalf("%d units after half a chunk of op time, want 0", c.units)
	}
	c.after(calChunk / 2)
	if c.units == 0 || c.pending != 0 {
		t.Fatalf("after a whole chunk: %d units, %v pending", c.units, c.pending)
	}
	if max := 4 * time.Duration(calShare*float64(calChunk)); c.elapsed > max {
		t.Errorf("calibrated for %v after a %v chunk, want about %v", c.elapsed, calChunk, max/4)
	}
	if f := c.factor(); f <= 0 {
		t.Errorf("host factor %g, want > 0", f)
	}

	c = newCalibrator()
	c.flush()
	if c.units != 1 {
		t.Errorf("flush with no op time ran %d units, want 1", c.units)
	}
	for i := 1; i < len(c.heap); i++ {
		if c.heap[(i-1)/2] > c.heap[i] {
			t.Fatalf("heap out of order at %d", i)
		}
	}
	if len(c.heap) != heapSize {
		t.Errorf("heap holds %d keys, want %d", len(c.heap), heapSize)
	}
}
