package benchmark

import (
	"math/rand"
	"time"
)

// Host-speed calibration.
//
// The benchmark shares its host with other tenants, whose load changes how
// fast the same instructions run. On a 2-vCPU VM, one child process ran the
// same work in 1.57 s and, four seconds later, in 2.24 s, and the medians
// of ten 20-second runs spread by 10-38%. No run length averages that away. A
// timed repeat therefore interleaves its ops with a fixed reference
// computation, the calibration, that belongs to the benchmark and never
// changes with the simulator. After every calChunk of op time it runs units
// of calibration for calShare of that time, so the units sample the host
// over the same stretch of time as the ops. The repeat's time metrics are
// then divided by its host factor, the mean unit time over refUnit: they read
// as the time the repeat would take on a host where one unit takes refUnit.
//
// A unit is pops and pushes on a binary heap that fits in L1: unpredictable
// branches and dependent loads, like the simulator's event queue and
// interpreter. It tracked the simulator better than a dependent ALU chain,
// random reads over 8 MiB or a switch-dispatch loop on every workload, and
// better than heaps of 256 KiB and 2 MiB on three of four. It cut the
// spread of ten runs' medians to 2-7% (README.md has the sweeps). The
// correction is partial: the simulator slows a little more than the heap
// does, so the scaled medians still rise with the host factor.
const (
	calChunk = 50 * time.Millisecond
	calShare = 0.25
	// refUnit is one unit's time on the reference host: about the median on
	// the 2-vCPU VM the benchmark was tuned on (the fastest units there took
	// 200 µs).
	refUnit  = 250 * time.Microsecond
	heapSize = 4096
	unitOps  = 5000
)

// calibrator interleaves calibration units with a pass's ops.
type calibrator struct {
	heap []int64
	// x draws each unit's key increment.
	x uint64
	// pending is op time not yet followed by calibration.
	pending time.Duration
	units   int
	elapsed time.Duration
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{heap: make([]int64, 0, heapSize+1), x: 1}
	for i := 0; i < heapSize; i++ {
		c.push(rng.Int63())
	}
	return c
}

// after records an op's host time and calibrates once calChunk of op time
// has gathered.
func (c *calibrator) after(op time.Duration) {
	c.pending += op
	if c.pending >= calChunk {
		c.flush()
	}
}

// flush calibrates for the op time not yet covered, and runs at least one
// unit in all.
func (c *calibrator) flush() {
	budget := time.Duration(calShare * float64(c.pending))
	c.pending = 0
	start := time.Now()
	for c.units == 0 || time.Since(start) < budget {
		c.unit()
		c.units++
	}
	c.elapsed += time.Since(start)
}

// factor is the host factor: the mean unit time over refUnit. Above 1 the
// host ran slower than the reference.
func (c *calibrator) factor() float64 {
	return c.elapsed.Seconds() / float64(c.units) / refUnit.Seconds()
}

// unit is one unit of calibration: unitOps times, pop the least key and
// push it back raised by the unit's increment.
func (c *calibrator) unit() {
	c.x = c.x*6364136223846793005 + 1442695040888963407
	d := int64(c.x >> 54)
	for i := 0; i < unitOps; i++ {
		c.push(c.pop() + d)
	}
}

func (c *calibrator) push(v int64) {
	h := append(c.heap, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	c.heap = h
}

func (c *calibrator) pop() int64 {
	h := c.heap
	v := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	c.heap = h
	return v
}
