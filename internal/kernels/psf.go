package kernels

import (
	"encoding/binary"
	"fmt"

	"assasin/internal/asm"
)

// PSF is the Parse→Select→Filter database pipeline offloaded per TPC-H
// query in Fig. 14: it parses '|'-delimited CSV rows of non-negative
// integers (the tpch package encodes dates as yyyymmdd and low-cardinality
// strings as dictionary codes), projects the requested columns, applies
// conjunctive range predicates, and emits passing rows as packed 32-bit
// little-endian values.
//
// Parse dominates the pipeline (byte-at-a-time scanning with a data-
// dependent branch per character), which is why the paper finds PSF
// moderate in compute intensity and why UDP's branch-free dispatch helps
// it.
type PSF struct {
	// NumFields is the column count of the CSV schema.
	NumFields int
	// Project lists the column indices to emit, in output order.
	Project []int
	// Preds are conjunctive range predicates; every predicate column must
	// appear in Project (the saved-register set).
	Preds []PSFPred
}

// PSFPred is an inclusive range predicate on a parsed column.
type PSFPred struct {
	Col    int
	Lo, Hi uint32
}

// Name implements Kernel.
func (PSF) Name() string { return "psf" }

// Inputs implements Kernel.
func (PSF) Inputs() int { return 1 }

// Outputs implements Kernel.
func (PSF) Outputs() int { return 1 }

// State implements Kernel.
func (PSF) State() []byte { return nil }

func (k PSF) check() error {
	if k.NumFields <= 0 || k.NumFields > 32 {
		return fmt.Errorf("kernels: psf field count %d unsupported", k.NumFields)
	}
	if len(k.Project) == 0 || len(k.Project) > 8 {
		return fmt.Errorf("kernels: psf supports 1-8 projected columns, got %d", len(k.Project))
	}
	if len(k.Preds) > 2 {
		return fmt.Errorf("kernels: psf supports at most 2 predicates, got %d", len(k.Preds))
	}
	proj := map[int]int{}
	for i, c := range k.Project {
		if c < 0 || c >= k.NumFields {
			return fmt.Errorf("kernels: psf projected column %d out of schema", c)
		}
		proj[c] = i
	}
	for _, p := range k.Preds {
		if _, ok := proj[p.Col]; !ok {
			return fmt.Errorf("kernels: psf predicate column %d must be projected", p.Col)
		}
	}
	return nil
}

// Build implements Kernel. Register allocation:
//
//	A1        current field value accumulator
//	T0, T1    character / multiply temp
//	T2, T3    '|' and '\n' delimiter constants
//	S1-S8     saved (projected) column values
//	A2-A5     predicate bounds
//	S10/S11/T4  input ptr / release threshold / end (software style)
//	S0        output ptr (software style)
func (k PSF) Build(p BuildParams) (*asm.Program, error) {
	if err := k.check(); err != nil {
		return nil, err
	}
	b := asm.New()
	b.Li(asm.T2, '|')
	b.Li(asm.T3, '\n')
	savedRegs := []asm.Reg{asm.S1, asm.S2, asm.S3, asm.S4, asm.S5, asm.S6, asm.S7, asm.S8}
	savedFor := map[int]asm.Reg{}
	for i, c := range k.Project {
		savedFor[c] = savedRegs[i]
	}
	predBounds := []asm.Reg{asm.A2, asm.A3, asm.A4, asm.A5}
	for i, pr := range k.Preds {
		b.Li(predBounds[2*i], int32(pr.Lo))
		b.Li(predBounds[2*i+1], int32(pr.Hi))
	}

	io := newStreamIO(b, p, asm.T4, 1)
	lineStart := io.top()
	// Per-field parse loops, fully unrolled across the schema so no field
	// counter is needed.
	for f := 0; f < k.NumFields; f++ {
		delim := asm.T2
		if f == k.NumFields-1 {
			delim = asm.T3
		}
		b.Li(asm.A1, 0)
		charLoop := b.Here()
		io.load(asm.T0, 1, 0)
		io.consumed(1)
		fieldDone := b.NewLabel()
		b.Beq(asm.T0, delim, fieldDone)
		// val = val*10 + c - '0'  (shift-add multiply, as compilers emit)
		b.Slli(asm.T1, asm.A1, 3)
		b.Slli(asm.A1, asm.A1, 1)
		b.Add(asm.A1, asm.A1, asm.T1)
		b.Addi(asm.T0, asm.T0, -'0')
		b.Add(asm.A1, asm.A1, asm.T0)
		b.J(charLoop)
		b.Bind(fieldDone)
		if r, ok := savedFor[f]; ok {
			b.Mv(r, asm.A1)
		}
	}
	// Filter: conjunctive range predicates on saved columns.
	reject := b.NewLabel()
	for i, pr := range k.Preds {
		r := savedFor[pr.Col]
		b.Bltu(r, predBounds[2*i], reject)
		b.Bltu(predBounds[2*i+1], r, reject)
	}
	// Emit projected columns.
	for i, c := range k.Project {
		io.store(0, 4, savedFor[c], int32(4*i))
	}
	io.stored(int32(4 * len(k.Project)))
	b.Bind(reject)
	b.J(lineStart)
	return assemble(b, "psf", p.Style)
}

// ParseRow parses one CSV row into column values (reference helper).
func (k PSF) ParseRow(line []byte) []uint32 {
	vals := make([]uint32, k.NumFields)
	field := 0
	var v uint32
	for _, c := range line {
		switch c {
		case '|', '\n':
			if field < k.NumFields {
				vals[field] = v
			}
			field++
			v = 0
		default:
			v = v*10 + uint32(c-'0')
		}
	}
	return vals
}

// Matches applies the predicates to parsed column values.
func (k PSF) Matches(vals []uint32) bool {
	for _, pr := range k.Preds {
		v := vals[pr.Col]
		if v < pr.Lo || v > pr.Hi {
			return false
		}
	}
	return true
}

// Reference implements Kernel.
func (k PSF) Reference(inputs [][]byte) ([][]byte, error) {
	if err := checkInputs(k.Name(), inputs, 1); err != nil {
		return nil, err
	}
	if err := k.check(); err != nil {
		return nil, err
	}
	var out []byte
	start := 0
	in := inputs[0]
	for i, c := range in {
		if c != '\n' {
			continue
		}
		vals := k.ParseRow(in[start : i+1])
		start = i + 1
		if !k.Matches(vals) {
			continue
		}
		for _, col := range k.Project {
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], vals[col])
			out = append(out, buf[:]...)
		}
	}
	return [][]byte{out}, nil
}
