package ssd

import (
	"encoding/binary"
	"math"
	"reflect"
	"sync"

	"assasin/internal/asm"
	"assasin/internal/cpu"
	"assasin/internal/kernels"
)

// programMemoCap bounds how many (kernel, BuildParams) programs the process
// keeps. Every experiment and benchmark workload uses a few dozen; past the
// bound, BuildTasks builds without memoizing.
const programMemoCap = 256

// programs is the process-wide memo behind BuildTasks: every SSD shares
// one build, one State image and one translation of each distinct kernel
// program.
var programs = newProgramMemo(programMemoCap)

// builtProgram is one memo entry. prog and state are read-only once
// published, and RunOffload copies state into each core's scratchpad or
// DRAM. code, the translation every core shares, is set once, under the
// memo's lock, by the first RunOffload that runs prog.
type builtProgram struct {
	prog  *asm.Program
	state []byte
	code  *cpu.Program
}

// programKey identifies a build: the kernel's dynamic type, a snapshot of
// its value (see appendValue) and the build parameters.
type programKey struct {
	typ    reflect.Type
	value  string
	params kernels.BuildParams
}

// programMemo maps build keys, and the programs it built, to their
// entries. It is safe for concurrent use.
type programMemo struct {
	capacity int
	mu       sync.Mutex
	byKey    map[programKey]*builtProgram
	byProg   map[*asm.Program]*builtProgram
}

func newProgramMemo(capacity int) *programMemo {
	return &programMemo{
		capacity: capacity,
		byKey:    make(map[programKey]*builtProgram),
		byProg:   make(map[*asm.Program]*builtProgram),
	}
}

// build returns k's program for p, named k.Name(), and its State image.
// A kernel whose type holds a pointer, map, func, chan or interface has no
// value snapshot and is built afresh on every call, as is every kernel once
// the memo is full.
func (m *programMemo) build(k kernels.Kernel, p kernels.BuildParams) (*asm.Program, []byte, error) {
	typ := reflect.TypeOf(k)
	if !snapshotable(typ, nil) {
		return buildFresh(k, p)
	}
	key := programKey{typ, string(appendValue(nil, reflect.ValueOf(k))), p}
	m.mu.Lock()
	e := m.byKey[key]
	m.mu.Unlock()
	if e != nil {
		return e.prog, e.state, nil
	}
	prog, state, err := buildFresh(k, p)
	if err != nil {
		return nil, nil, err
	}
	e = &builtProgram{prog: prog, state: state}
	m.mu.Lock()
	defer m.mu.Unlock()
	if won := m.byKey[key]; won != nil {
		e = won // another goroutine built the same key first
	} else if len(m.byKey) < m.capacity {
		m.byKey[key] = e
		m.byProg[prog] = e
	}
	return e.prog, e.state, nil
}

// buildFresh builds k's program for p, names it k.Name() so statistics and
// kprof symbolization label samples with the kernel, and takes its State
// image.
func buildFresh(k kernels.Kernel, p kernels.BuildParams) (*asm.Program, []byte, error) {
	prog, err := k.Build(p)
	if err != nil {
		return nil, nil, err
	}
	prog.Name = k.Name()
	return prog, k.State(), nil
}

// translation returns prog's shared translation, translating it on first
// use, or a fresh one when the memo did not build prog (hand-built
// TaskSpecs, and builds that bypassed it).
func (m *programMemo) translation(prog *asm.Program) *cpu.Program {
	m.mu.Lock()
	e := m.byProg[prog]
	if e != nil && e.code == nil {
		e.code = cpu.Translate(prog)
	}
	m.mu.Unlock()
	if e == nil {
		return cpu.Translate(prog)
	}
	return e.code
}

// snapshotable reports whether appendValue can encode every value of t:
// t holds no pointer, map, func, chan or interface, and no type contains
// itself (through a slice), so every value is a finite tree. path holds
// the enclosing types.
func snapshotable(t reflect.Type, path []reflect.Type) bool {
	for _, p := range path {
		if p == t {
			return false
		}
	}
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array, reflect.Slice:
		return snapshotable(t.Elem(), append(path, t))
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !snapshotable(t.Field(i).Type, append(path, t)) {
				return false
			}
		}
		return true
	}
	return false
}

// appendValue appends an encoding of v, whose type is snapshotable, to b.
// Values of one type encode equal exactly when they are deeply equal with
// nil and empty slices told apart and floats compared by bits: scalars
// are fixed-width, and strings and slices carry their length.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.LittleEndian.AppendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(c)))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(c)))
	case reflect.String:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Len()))
		return append(b, v.String()...)
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0)
		}
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Len()))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return append(b, v.Bytes()...)
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = appendValue(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendValue(b, v.Field(i))
		}
		return b
	}
	panic("ssd: appendValue of a type snapshotable rejects: " + v.Type().String())
}
