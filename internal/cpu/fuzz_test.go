package cpu

// Differential fuzzing of the two execution engines: random valid
// programs (RV32IM + stream ops, constrained so control flow stays
// in-bounds) run under ExecPrecise and ExecCompiled against identical
// stream inputs and dispatch schedules must leave byte-identical
// architectural state, Stats, local time and output bytes. This catches
// translator edge cases the Table II workloads never
// exercise — odd loop shapes, branches into the middle of ALU runs,
// blocking at every body position, error paths.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"assasin/internal/asm"
	"assasin/internal/isa"
	"assasin/internal/sim"
)

var updateSeeds = flag.Bool("update-seeds", false, "rewrite the checked-in fuzz seed corpus under testdata/fuzz/")

// fuzzOps is the generator's op domain (every defined op).
var fuzzOps = isa.Ops()

// fuzzWidths are the legal stream access widths.
var fuzzWidths = [3]uint8{1, 2, 4}

// genProgram decodes raw into a program, 6 bytes per instruction:
//
//	b0 op selector · b1 rd · b2 rs1 · b3 rs2 · b4 immediate · b5 width/slot
//
// Register fields are reduced mod 32, stream slots mod 4 (the test system's
// slot count), widths to {1,2,4}, and branch/jal targets are clamped into
// the program so control flow stays in-bounds; a Halt is appended so every
// path can terminate. Returns nil when raw holds less than one instruction.
func genProgram(raw []byte) *asm.Program {
	const maxInsts = 48
	chunks := len(raw) / 6
	if chunks == 0 {
		return nil
	}
	if chunks > maxInsts {
		chunks = maxInsts
	}
	n := chunks + 1 // + appended Halt
	insts := make([]isa.Inst, 0, n)
	for i := 0; i < chunks; i++ {
		b := raw[i*6 : i*6+6]
		op := fuzzOps[int(b[0])%len(fuzzOps)]
		in := isa.Inst{
			Op:     op,
			Rd:     b[1] % 32,
			Rs1:    b[2] % 32,
			Rs2:    b[3] % 32,
			Stream: (b[5] / 3) % 4,
			Width:  fuzzWidths[b[5]%3],
		}
		switch op.Class() {
		case isa.ClassALU:
			in.Imm = int32(int8(b[4]))
		case isa.ClassLoad, isa.ClassStore:
			in.Imm = int32(b[4]) * 4 // scratchpad-range offsets
		case isa.ClassBranch:
			in.Imm = int32(int(b[4])%n - i)
		case isa.ClassJump:
			if op == isa.OpJal {
				in.Imm = int32(int(b[4])%n - i)
			} else { // jalr: absolute target from rs1 + small offset
				in.Imm = int32(b[4] % 8)
			}
		case isa.ClassStreamLoad:
			if op == isa.OpStreamPeek {
				in.Imm = int32(b[4] % 32)
			}
		case isa.ClassStreamCtl:
			switch op {
			case isa.OpStreamAdv:
				in.Imm = int32(b[4] % 8)
			case isa.OpStreamCsrR:
				in.Imm = int32(b[4] % 2)
			}
		}
		insts = append(insts, in)
	}
	insts = append(insts, isa.Inst{Op: isa.OpHalt})
	return &asm.Program{Name: "fuzz", Insts: insts}
}

// fuzzOutcome is everything observable about a finished (or stuck) run.
type fuzzOutcome struct {
	Regs   [isa.NumRegs]uint32
	PC     int
	At     sim.Time
	Halted bool
	Err    string
	Stats  Stats
	Out    [4][]byte
}

// runFuzzProgram executes prog under mode on a fresh test system with a
// fixed input/drain schedule: two staggered pushes per input stream (then
// closed), 500 ns dispatch quanta, and output windows drained at every
// quantum boundary. The schedule is a pure function of the program and
// inputs, so any outcome divergence between modes is an engine bug.
func runFuzzProgram(prog *asm.Program, mode ExecMode, inData [4][]byte) fuzzOutcome {
	// One name for every mode: simulation errors embed it, and error
	// strings are part of the compared outcome.
	cfg := DefaultConfig("fuzz")
	cfg.Exec = mode
	cfg.MaxInstructions = 150_000
	sys := newTestSystem()
	c := New(cfg, sys)
	c.LoadProgram(prog)
	for s, d := range inData {
		half := len(d) / 2
		in := sys.Streams.In[s]
		if err := in.Push(append([]byte(nil), d[:half]...), 0); err != nil {
			panic(err)
		}
		if err := in.Push(append([]byte(nil), d[half:]...), 2*sim.Microsecond); err != nil {
			panic(err)
		}
		in.Close()
	}
	var out fuzzOutcome
	const quantum = 500 * sim.Nanosecond
	for k := 1; k <= 400; k++ {
		limit := sim.Time(k) * quantum
		_, state, _ := c.Run(limit)
		for s := range sys.Streams.Out {
			st := sys.Streams.Out[s]
			if b := st.Buffered(); b > 0 {
				out.Out[s] = append(out.Out[s], st.Drain(b, limit)...)
				c.Wake(limit)
			}
		}
		if state == sim.StateDone {
			break
		}
	}
	out.Regs = c.regs
	out.PC = c.pc
	out.At = c.at
	out.Halted = c.halted
	if c.err != nil {
		out.Err = c.err.Error()
	}
	out.Stats = c.stats
	return out
}

// fuzzInputs derives the per-slot stream bytes from the raw corpus entry so
// data patterns vary with the program.
func fuzzInputs(raw []byte) [4][]byte {
	var data [4][]byte
	for s := range data {
		n := 64 + int(byte(len(raw))*13+byte(s)*29)%128
		d := make([]byte, n)
		seed := byte(s*31 + 7)
		if len(raw) > s {
			seed ^= raw[s]
		}
		for i := range d {
			d[i] = seed + byte(i*17)
		}
		data[s] = d
	}
	return data
}

// seedChunk encodes one instruction in genProgram's 6-byte format (op
// selectors are the Ops() index of the op).
func seedChunk(op isa.Op, rd, rs1, rs2, immb, wsel uint8) []byte {
	return []byte{uint8(op - 1), rd, rs1, rs2, immb, wsel}
}

// fuzzSeeds returns the checked-in corpus: programs shaped like real
// kernels (stream loops, branch-heavy bodies, mul/div chains, error paths)
// so fuzzing starts from the structures the engines optimize.
func fuzzSeeds() [][]byte {
	cat := func(chunks ...[]byte) []byte {
		var b []byte
		for _, c := range chunks {
			b = append(b, c...)
		}
		return b
	}
	return [][]byte{
		// Stream-sum loop: load s0, accumulate, store to out slot 1, jal back.
		cat(
			seedChunk(isa.OpStreamLoad, 10, 0, 0, 0, 2), // slot 0, width 4
			seedChunk(isa.OpAdd, 8, 8, 10, 0, 0),
			seedChunk(isa.OpStreamStore, 0, 0, 8, 0, 5), // slot 1, width 4
			seedChunk(isa.OpJal, 0, 0, 0, 0, 0),         // back to pc 0
		),
		// Branch-closed ALU loop with a mid-body forward branch.
		cat(
			seedChunk(isa.OpAddi, 5, 5, 0, 1, 0),
			seedChunk(isa.OpXor, 7, 7, 5, 0, 0),
			seedChunk(isa.OpBeq, 0, 7, 7, 4, 0), // forward to pc 4
			seedChunk(isa.OpSlli, 28, 5, 0, 3, 0),
			seedChunk(isa.OpBltu, 0, 5, 6, 0, 0), // back to pc 0 (never: t1=0)
		),
		// Mul/div chain with a peek+adv stream walk.
		cat(
			seedChunk(isa.OpStreamPeek, 10, 0, 0, 4, 2),
			seedChunk(isa.OpMul, 11, 10, 10, 0, 0),
			seedChunk(isa.OpDivu, 12, 11, 10, 0, 0),
			seedChunk(isa.OpStreamAdv, 0, 0, 0, 2, 2),
			seedChunk(isa.OpStreamEnd, 13, 0, 0, 0, 2),
			seedChunk(isa.OpBeq, 0, 13, 0, 0, 0), // loop while not exhausted
		),
		// Scratchpad load/store round trip plus CSR reads.
		cat(
			seedChunk(isa.OpAddi, 6, 0, 0, 16, 0),
			seedChunk(isa.OpSw, 0, 6, 6, 8, 0),
			seedChunk(isa.OpLw, 9, 6, 0, 8, 0),
			seedChunk(isa.OpStreamCsrR, 14, 0, 0, 1, 2),
			seedChunk(isa.OpStreamCsrR, 15, 0, 0, 0, 2),
		),
		longBodySeed(),
		// Adv-only slot on a stream shorter than one page, released 12
		// bytes an iteration until StreamEnd: the last Adv clamps to the
		// closed stream's remainder. Slot 0 is peeked beside it.
		cat(
			seedChunk(isa.OpStreamPeek, 10, 0, 0, 0, 2), // slot 0, width 4
			seedChunk(isa.OpStreamAdv, 0, 0, 0, 3, 5),   // slot 1, 3 words
			seedChunk(isa.OpAdd, 8, 8, 10, 0, 0),
			seedChunk(isa.OpStreamEnd, 13, 0, 0, 0, 5),
			seedChunk(isa.OpBeq, 0, 13, 0, 0, 0), // back to pc 0 until exhausted
		),
	}
}

// longBodySeed is a loop whose body (27 divisions, about 560 cycles)
// outlasts the 500 ns harness quantum and closes on a conditional back
// edge, so dispatch slices end at shifting body offsets.
func longBodySeed() []byte {
	b := seedChunk(isa.OpAddi, 31, 0, 0, 4, 0) // t6 = 4 iterations
	b = append(b, seedChunk(isa.OpAddi, 5, 5, 0, 1, 0)...)
	b = append(b, seedChunk(isa.OpStreamLoad, 10, 0, 0, 0, 0)...) // slot 0, width 1
	for i := uint8(0); i < 27; i++ {
		b = append(b, seedChunk(isa.OpDivu, 12+i%4, 10, 5, 0, 0)...)
	}
	b = append(b, seedChunk(isa.OpStreamStore, 0, 0, 12, 0, 5)...) // slot 1, width 4
	return append(b, seedChunk(isa.OpBne, 0, 5, 31, 1, 0)...)      // back to pc 1
}

// TestFuzzSeedCorpus keeps the checked-in seed corpus in sync with the
// generator encoding: every seed must decode to a program that runs
// identically under both engines, and -update-seeds rewrites the
// corpus files from fuzzSeeds().
func TestFuzzSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzExecEquivalence")
	if *updateSeeds {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range fuzzSeeds() {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) == 0 {
		t.Fatalf("seed corpus missing under %s (run with -update-seeds): %v", dir, err)
	}
	for _, s := range fuzzSeeds() {
		checkExecEquivalence(t, s)
	}
}

// checkExecEquivalence is the shared oracle for the fuzz target and the
// seed test.
func checkExecEquivalence(t *testing.T, raw []byte) {
	t.Helper()
	prog := genProgram(raw)
	if prog == nil {
		t.Skip("input shorter than one instruction")
	}
	inputs := fuzzInputs(raw)
	ref := runFuzzProgram(prog, ExecPrecise, inputs)
	if got := runFuzzProgram(prog, ExecCompiled, inputs); !reflect.DeepEqual(got, ref) {
		t.Errorf("compiled diverges from precise for program:\n%v\nprecise: %+v\ncompiled: %+v",
			prog.Insts, ref, got)
	}
}

// FuzzExecEquivalence is the differential fuzz target; see the package
// comment at the top of this file. Run a bounded pass with
// go test ./internal/cpu -run '^$' -fuzz FuzzExecEquivalence -fuzztime 10s
func FuzzExecEquivalence(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkExecEquivalence(t, raw)
	})
}
