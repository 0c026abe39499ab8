// Package kernels implements the 14 offloaded computational-storage
// functions the paper evaluates: Stat, Scan (the byte-scan scalability
// workload), RAID4 and RAID6 erasure coding, AES encryption, the Filter,
// Select and PSF (Parse/Select/Filter) database pipeline, Dedup,
// LZDecompress, MLP inference, LinearTrain, Degree (graph statistics) and
// Replicate. Each is built in two lowerings:
//
//   - StyleStream: the ASSASIN stream ISA (StreamLoad/StreamPeek/StreamAdv/
//     StreamStore; Section V-B), with automatic stream pointer management.
//   - StyleSoftware: conventional loads/stores walking pointers over staged
//     stream windows (DRAM staging buffers or ping-pong scratchpads), with
//     explicit pointer arithmetic, bounds checks and page-release
//     bookkeeping — the extra instructions the stream ISA eliminates.
//
// A kernel's Build is written once against streamIO, the one emitter that
// turns each stream access into the chosen lowering. Stat, Scan, RAID4 and
// RAID6 switch on the style themselves, because their software loops have
// another shape (bottom-tested, or blocked per page).
//
// Every kernel also has a pure-Go reference implementation; tests check the
// simulated output bit-for-bit against it.
package kernels

import (
	"fmt"

	"assasin/internal/asm"
	"assasin/internal/memhier"
)

// Style selects the code lowering.
type Style int

// Styles.
const (
	StyleStream Style = iota
	StyleSoftware
)

// String implements fmt.Stringer.
func (s Style) String() string {
	if s == StyleStream {
		return "stream"
	}
	return "software"
}

// BuildParams parameterizes code generation.
type BuildParams struct {
	Style Style
	// PageSize is the stream window page granularity (release cadence for
	// software-managed windows).
	PageSize int
	// StateBase is the address where the kernel's function state (tables,
	// keys) is preloaded: memhier.ScratchpadBase for scratchpad
	// architectures, a DRAM address for cache-hierarchy architectures.
	StateBase uint32
}

// Kernel is one offloadable function.
type Kernel interface {
	// Name identifies the kernel.
	Name() string
	// Inputs and Outputs are the stream slot counts.
	Inputs() int
	Outputs() int
	// Build emits the program for the given lowering.
	Build(p BuildParams) (*asm.Program, error)
	// State returns the function-state image to preload at StateBase (nil
	// if the kernel is stateless).
	State() []byte
	// Reference computes the expected outputs from the input bytes.
	Reference(inputs [][]byte) ([][]byte, error)
}

// inViewBase returns the view address of input slot s, byte 0.
func inViewBase(s uint8) int32 {
	return int32(memhier.StreamInViewBase + uint32(s)*memhier.StreamViewStride)
}

// outViewBase returns the view address of output slot s, byte 0.
func outViewBase(s uint8) int32 {
	return int32(memhier.StreamOutViewBase + uint32(s)*memhier.StreamViewStride)
}

// Args returns a kernel's initial register values given its per-stream
// input byte lengths: input stream i's length in register A0+i. Software
// lowerings compute their end-of-stream addresses from these; stream
// lowerings terminate on end-of-stream and ignore them.
func Args(inputLengths []int64) map[asm.Reg]uint32 {
	args := make(map[asm.Reg]uint32, len(inputLengths))
	for i, n := range inputLengths {
		args[asm.A0+asm.Reg(i)] = uint32(n)
	}
	return args
}

// streamIO emits a record loop's stream accesses in one lowering, so a
// kernel's Build is written once and the stream-vs-software choice is made
// here. The software lowering walks input slot 0 with a pointer in S10,
// releases a window page each time the pointer crosses the threshold in
// S11, stops when the pointer reaches an end register, and writes outputs
// through walking pointers (S0, then S2). Those pointer adds, release
// checks and end checks are the "address calculations and pointer
// management instructions" the paper's stream ISA removes: the stream
// lowering emits StreamLoad/StreamPeek/StreamAdv/StreamStore and nothing
// else.
type streamIO struct {
	b        *asm.Builder
	soft     bool
	pageSize int32
	end      asm.Reg // software: input end address
	outs     int     // software: number of output pointers
}

// Software input pointer and release threshold registers.
const (
	softInPtr    = asm.S10
	softInThresh = asm.S11
)

// softOutPtrs are the software output pointer registers, by slot.
var softOutPtrs = [2]asm.Reg{asm.S0, asm.S2}

// newStreamIO starts the lowering p.Style selects. The software lowering
// emits its set-up here: the input pointer and release threshold, the end
// address (slot 0's base plus the length in A0) into end, and outs output
// pointers. Streams are limited to 16 MiB per core (the view stride),
// which the experiment harness guarantees, so no wrap code is needed —
// matching real kernels that walk a large staging buffer.
func newStreamIO(b *asm.Builder, p BuildParams, end asm.Reg, outs int) streamIO {
	s := streamIO{b: b, soft: p.Style != StyleStream, pageSize: int32(p.PageSize), end: end, outs: outs}
	if s.soft {
		b.Li(softInPtr, inViewBase(0))
		b.Li(softInThresh, inViewBase(0)+s.pageSize)
		b.Li(end, inViewBase(0))
		b.Add(end, end, asm.A0)
		for o := 0; o < outs; o++ {
			b.Li(softOutPtrs[o], outViewBase(uint8(o)))
		}
	}
	return s
}

// top marks the top of the record loop and returns its label. The
// software lowering halts there once the input pointer reaches the end;
// the stream lowering needs no check, since a StreamLoad or StreamPeek
// past the end of the stream halts the core.
func (s *streamIO) top() asm.Label {
	loop := s.b.Here()
	if s.soft {
		cont := s.b.NewLabel()
		s.b.Bltu(softInPtr, s.end, cont)
		s.b.Halt()
		s.b.Bind(cont)
	}
	return loop
}

// load consumes the next width input bytes into rd. The software lowering
// reads them at byte off of the current record and leaves the pointer for
// consumed to move.
func (s *streamIO) load(rd asm.Reg, width uint8, off int32) {
	if s.soft {
		s.softLoad(rd, width, off)
	} else {
		s.b.StreamLoad(rd, 0, width)
	}
}

// peek reads width bytes at byte off of the current record into rd
// without consuming them.
func (s *streamIO) peek(rd asm.Reg, width uint8, off int32) {
	if s.soft {
		s.softLoad(rd, width, off)
	} else {
		s.b.StreamPeek(rd, 0, width, off)
	}
}

// softLoad reads a byte (width 1) or a word (width 4, the only other
// width the kernels use).
func (s *streamIO) softLoad(rd asm.Reg, width uint8, off int32) {
	if width == 1 {
		s.b.Lbu(rd, softInPtr, off)
	} else {
		s.b.Lw(rd, softInPtr, off)
	}
}

// consumed closes n bytes read with load: the software lowering advances
// its pointer; StreamLoad already advanced the stream.
func (s *streamIO) consumed(n int32) {
	if s.soft {
		s.advance(n)
	}
}

// skip moves past n bytes read with peek.
func (s *streamIO) skip(n int32) {
	if s.soft {
		s.advance(n)
	} else {
		s.b.StreamAdv(0, n)
	}
}

// advance emits ptr += n and releases a window page when the pointer
// crosses the threshold.
func (s *streamIO) advance(n int32) {
	s.b.Addi(softInPtr, softInPtr, n)
	skip := s.b.NewLabel()
	s.b.Bltu(softInPtr, softInThresh, skip)
	s.b.StreamAdv(0, s.pageSize)
	s.b.Addi(softInThresh, softInThresh, s.pageSize)
	s.b.Bind(skip)
}

// store writes the low width bytes (1 or 4) of rs to output slot at byte
// off of the current output record.
func (s *streamIO) store(slot uint8, width uint8, rs asm.Reg, off int32) {
	switch {
	case !s.soft:
		s.b.StreamStore(slot, width, rs)
	case width == 1:
		s.b.Sb(rs, softOutPtrs[slot], off)
	default:
		s.b.Sw(rs, softOutPtrs[slot], off)
	}
}

// stored closes an n-byte output record on every output: the software
// lowering advances its output pointers; StreamStore already appended.
func (s *streamIO) stored(n int32) {
	if s.soft {
		for o := 0; o < s.outs; o++ {
			s.b.Addi(softOutPtrs[o], softOutPtrs[o], n)
		}
	}
}

// assemble builds b into the program named kernel/style.
func assemble(b *asm.Builder, kernel string, style Style) (*asm.Program, error) {
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	prog.Name = kernel + "/" + style.String()
	return prog, nil
}

// checkInputs validates reference-implementation inputs.
func checkInputs(name string, inputs [][]byte, want int) error {
	if len(inputs) != want {
		return fmt.Errorf("kernels: %s expects %d inputs, got %d", name, want, len(inputs))
	}
	return nil
}
