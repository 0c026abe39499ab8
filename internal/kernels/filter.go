package kernels

import (
	"encoding/binary"
	"fmt"

	"assasin/internal/asm"
)

// FieldPred is an inclusive range predicate on a 32-bit tuple field
// (unsigned comparison): Lo <= value <= Hi.
type FieldPred struct {
	Offset int // byte offset of the field within the tuple
	Lo, Hi uint32
}

// Filter is the tuple-filtering offload of the motivating example (Section
// III-A, Fig. 5): it scans fixed-size binary tuples (TPC-H lineitem
// serialized flatly) and copies those satisfying all predicates to the
// output stream — early data reduction inside the SSD.
type Filter struct {
	// TupleSize is the record size in bytes (multiple of 4).
	TupleSize int
	// Preds are the conjunctive field predicates.
	Preds []FieldPred
}

// Name implements Kernel.
func (Filter) Name() string { return "filter" }

// Inputs implements Kernel.
func (Filter) Inputs() int { return 1 }

// Outputs implements Kernel.
func (Filter) Outputs() int { return 1 }

// State implements Kernel.
func (Filter) State() []byte { return nil }

func (k Filter) check() error {
	if k.TupleSize <= 0 || k.TupleSize%4 != 0 {
		return fmt.Errorf("kernels: filter tuple size %d must be a positive multiple of 4", k.TupleSize)
	}
	if len(k.Preds) == 0 || len(k.Preds) > 3 {
		return fmt.Errorf("kernels: filter supports 1-3 predicates, got %d", len(k.Preds))
	}
	for _, p := range k.Preds {
		if p.Offset < 0 || p.Offset+4 > k.TupleSize {
			return fmt.Errorf("kernels: filter predicate offset %d out of tuple", p.Offset)
		}
	}
	return nil
}

// Build implements Kernel. Stream lowering reads fields with StreamPeek and
// advances the whole tuple with StreamAdvance; software lowering walks a
// pointer. Constants for predicate bounds are materialized once in A2-A7.
func (k Filter) Build(p BuildParams) (*asm.Program, error) {
	if err := k.check(); err != nil {
		return nil, err
	}
	b := asm.New()
	// Predicate constants: pred i bounds in consts[2i], consts[2i+1].
	consts := []asm.Reg{asm.A2, asm.A3, asm.A4, asm.A5, asm.A6, asm.A7}
	for i, pr := range k.Preds {
		b.Li(consts[2*i], int32(pr.Lo))
		b.Li(consts[2*i+1], int32(pr.Hi))
	}

	io := newStreamIO(b, p, asm.S5, 1)
	loop := io.top()
	reject := b.NewLabel()
	// Evaluate predicates on the in-place tuple.
	for i, pr := range k.Preds {
		io.peek(asm.A1, 4, int32(pr.Offset))
		b.Bltu(asm.A1, consts[2*i], reject)
		b.Bltu(consts[2*i+1], asm.A1, reject)
	}
	// Passed: copy the tuple to the output stream.
	for off := int32(0); off < int32(k.TupleSize); off += 4 {
		io.peek(asm.A1, 4, off)
		io.store(0, 4, asm.A1, off)
	}
	io.stored(int32(k.TupleSize))
	b.Bind(reject)
	io.skip(int32(k.TupleSize))
	b.J(loop)
	return assemble(b, "filter", p.Style)
}

// Matches reports whether a tuple passes all predicates.
func (k Filter) Matches(tuple []byte) bool {
	for _, pr := range k.Preds {
		v := binary.LittleEndian.Uint32(tuple[pr.Offset:])
		if v < pr.Lo || v > pr.Hi {
			return false
		}
	}
	return true
}

// Reference implements Kernel.
func (k Filter) Reference(inputs [][]byte) ([][]byte, error) {
	if err := checkInputs(k.Name(), inputs, 1); err != nil {
		return nil, err
	}
	if err := k.check(); err != nil {
		return nil, err
	}
	in := inputs[0]
	var out []byte
	for off := 0; off+k.TupleSize <= len(in); off += k.TupleSize {
		tuple := in[off : off+k.TupleSize]
		if k.Matches(tuple) {
			out = append(out, tuple...)
		}
	}
	return [][]byte{out}, nil
}

// Select is the projection offload: it copies a subset of each tuple's
// 32-bit fields to the output stream, shrinking tuples before they cross
// the storage interface.
type Select struct {
	TupleSize int
	// FieldOffsets are the byte offsets of projected fields.
	FieldOffsets []int
}

// Name implements Kernel.
func (Select) Name() string { return "select" }

// Inputs implements Kernel.
func (Select) Inputs() int { return 1 }

// Outputs implements Kernel.
func (Select) Outputs() int { return 1 }

// State implements Kernel.
func (Select) State() []byte { return nil }

func (k Select) check() error {
	if k.TupleSize <= 0 || k.TupleSize%4 != 0 {
		return fmt.Errorf("kernels: select tuple size %d must be a positive multiple of 4", k.TupleSize)
	}
	if len(k.FieldOffsets) == 0 {
		return fmt.Errorf("kernels: select needs projected fields")
	}
	for _, off := range k.FieldOffsets {
		if off < 0 || off+4 > k.TupleSize {
			return fmt.Errorf("kernels: select field offset %d out of tuple", off)
		}
	}
	return nil
}

// Build implements Kernel.
func (k Select) Build(p BuildParams) (*asm.Program, error) {
	if err := k.check(); err != nil {
		return nil, err
	}
	b := asm.New()
	io := newStreamIO(b, p, asm.S5, 1)
	loop := io.top()
	for i, off := range k.FieldOffsets {
		io.peek(asm.A1, 4, int32(off))
		io.store(0, 4, asm.A1, int32(4*i))
	}
	io.stored(int32(4 * len(k.FieldOffsets)))
	io.skip(int32(k.TupleSize))
	b.J(loop)
	return assemble(b, "select", p.Style)
}

// Reference implements Kernel.
func (k Select) Reference(inputs [][]byte) ([][]byte, error) {
	if err := checkInputs(k.Name(), inputs, 1); err != nil {
		return nil, err
	}
	if err := k.check(); err != nil {
		return nil, err
	}
	in := inputs[0]
	var out []byte
	for off := 0; off+k.TupleSize <= len(in); off += k.TupleSize {
		for _, f := range k.FieldOffsets {
			out = append(out, in[off+f:off+f+4]...)
		}
	}
	return [][]byte{out}, nil
}
