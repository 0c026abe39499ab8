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
	"crypto/sha256"
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
// Register fields are reduced mod 32, stream slots mod 5 (one past the test
// system's 4 slots, so both engines' missing-slot errors are compared),
// widths to {1,2,4}, and branch/jal targets are clamped into
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
			Stream: (b[5] / 3) % 5,
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
	// Scratch digests the scratchpad contents, where the engines' stores
	// land without passing a later load.
	Scratch [sha256.Size]byte
}

// fuzzConfig is the harness core config in mode. One name for every mode:
// simulation errors embed it, and error strings are part of the compared
// outcome.
func fuzzConfig(mode ExecMode) Config {
	cfg := DefaultConfig("fuzz")
	cfg.Exec = mode
	cfg.MaxInstructions = 150_000
	return cfg
}

// fuzzPagesPerQuantum is how many pages the paged schedule pushes into each
// input stream at a quantum boundary.
const fuzzPagesPerQuantum = 16

// fuzzSchedule is the harness's input schedule and scratchpad timing for
// one corpus entry.
type fuzzSchedule struct {
	// page is the size of each input push; 0 pushes each input in two
	// halves before the run.
	page int
	// spCycles is the scratchpad's AccessCycles.
	spCycles int
}

// scheduleFor returns raw's schedule: the two-push one with a single-cycle
// scratchpad, unless raw ends in a partial instruction chunk (which
// genProgram ignores). Its last byte then picks pages of 1 to 3 bytes, fed
// fuzzPagesPerQuantum per stream at every quantum boundary so that pushes,
// consumption and the availability list's compaction interleave as they do
// under the firmware, and a scratchpad of 1 or 2 access cycles.
func scheduleFor(raw []byte) fuzzSchedule {
	if len(raw)%6 == 0 {
		return fuzzSchedule{spCycles: 1}
	}
	b := int(raw[len(raw)-1])
	return fuzzSchedule{page: 1 + b%3, spCycles: 1 + b/3%2}
}

// runFuzzProgram executes prog on a fresh cfg core and test system with a
// fixed input/drain schedule: the input pushes sched selects (each stream
// closed after its last page, and a push wakes a blocked core at the
// page's availability time, as the firmware's does), 500 ns dispatch
// quanta, and output windows drained at every quantum boundary. The
// schedule is a pure function of the program and inputs, so any outcome
// divergence between modes is an engine bug.
func runFuzzProgram(prog *Program, cfg Config, inData [4][]byte, sched fuzzSchedule) fuzzOutcome {
	sys := newTestSystem()
	c := New(cfg, sys)
	c.LoadProgram(prog)
	sys.Scratchpad.AccessCycles = sched.spCycles
	for _, in := range sys.Streams.In {
		in.OnPush = c.Wake
	}
	const quantum = 500 * sim.Nanosecond
	var sent [4]int
	push := func(s, end int, at sim.Time) {
		in := sys.Streams.In[s]
		if err := in.Push(append([]byte(nil), inData[s][sent[s]:end]...), at); err != nil {
			panic(err)
		}
		if sent[s] = end; end == len(inData[s]) {
			in.Close()
		}
	}
	page := sched.page
	if page == 0 {
		for s, d := range inData {
			push(s, len(d)/2, 0)
			push(s, len(d), 2*sim.Microsecond)
		}
	}
	var out fuzzOutcome
	for k := 1; k <= 400; k++ {
		limit := sim.Time(k) * quantum
		for s, d := range inData {
			for j := 1; page > 0 && j <= fuzzPagesPerQuantum && sent[s] < len(d); j++ {
				push(s, min(sent[s]+page, len(d)), limit-quantum+sim.Time(j)*quantum/fuzzPagesPerQuantum)
			}
		}
		_, state, _ := c.Run(limit)
		for s := range sys.Streams.Out {
			st := sys.Streams.Out[s]
			if st.Buffered() > 0 {
				out.Out[s] = append(out.Out[s], drainAll(st, limit)...)
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
	mem, err := sys.Scratchpad.Bytes(0, sys.Scratchpad.Size())
	if err != nil {
		panic(err)
	}
	out.Scratch = sha256.Sum256(mem)
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
		// Load/store round trip plus CSR reads. The address, 48, lies below
		// ScratchpadBase, so both access DRAM.
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
		// One store pc and one load pc, each visiting five targets. Stores:
		// the scratchpad prefix, DRAM, past the prefix (which grows it),
		// an output stream view, and the grown prefix. Loads: DRAM, the
		// prefix, an input stream view, past the prefix (reads zero), and
		// past the scratchpad's 64 KiB (an error that ends the run).
		regionSeed(
			[][]byte{seedChunk(isa.OpSw, 0, 18, 11, 0, 0), seedChunk(isa.OpLw, 10, 5, 0, 0, 0)},
			[5][]byte{addrDRAM(5, 64), addrSP(6, 0), addrView(7, 1, 30), addrSPPow(8, 15), addrSPPow(9, 16)},
			[5][]byte{addrSP(18, 0), addrDRAM(19, 100), addrSPPow(20, 11), addrView(21, 3, 29), addrCopy(22, 20)},
			3, // scheduleFor: 1-byte pages, 2-cycle scratchpad
		),
		// The same with halfword loads and byte stores, which straddle the
		// prefix's end; the store pc's fifth target, an input stream view,
		// is the error.
		regionSeed(
			[][]byte{seedChunk(isa.OpLhu, 10, 5, 0, 0, 0), seedChunk(isa.OpSb, 0, 18, 11, 0, 0)},
			[5][]byte{addrSP(5, 2), addrSP(6, 3), addrDRAM(7, 66), cat(addrView(8, 1, 30), seedChunk(isa.OpAddi, 8, 8, 0, 1, 0)), addrSPPow(9, 15)},
			[5][]byte{addrSP(18, 1), addrSPPow(19, 13), addrCopy(20, 19), addrDRAM(21, 70), addrView(22, 1, 30)},
			4, // scheduleFor: 2-byte pages, 2-cycle scratchpad
		),
		// Stream-sum loop over 1-byte pages pushed while it runs: the
		// trailing byte selects the paged schedule, and the availability
		// list is compacted under BulkAvail's resume index.
		cat(
			seedChunk(isa.OpStreamLoad, 10, 0, 0, 0, 0), // slot 0, width 1
			seedChunk(isa.OpAdd, 8, 8, 10, 0, 0),
			seedChunk(isa.OpStreamStore, 0, 0, 8, 0, 5), // slot 1, width 4
			seedChunk(isa.OpJal, 0, 0, 0, 0, 0),         // back to pc 0
			[]byte{0},                                   // scheduleFor: 1-byte pages
		),
		// Stream loops whose StreamEnd, then StreamCsrR, names slot 4,
		// which the test system lacks: both engines must halt with the
		// precise engine's error.
		cat(
			seedChunk(isa.OpStreamLoad, 10, 0, 0, 0, 2), // slot 0, width 4
			seedChunk(isa.OpStreamEnd, 13, 0, 0, 0, 12), // slot 4
			seedChunk(isa.OpStreamStore, 0, 0, 10, 0, 5),
			seedChunk(isa.OpJal, 0, 0, 0, 0, 0), // back to pc 0
		),
		cat(
			seedChunk(isa.OpStreamLoad, 10, 0, 0, 0, 2),
			seedChunk(isa.OpStreamCsrR, 14, 0, 0, 1, 12), // slot 4, Tail
			seedChunk(isa.OpStreamStore, 0, 0, 10, 0, 5),
			seedChunk(isa.OpJal, 0, 0, 0, 0, 0),
		),
	}
}

// cat concatenates seed chunks.
func cat(chunks ...[]byte) []byte {
	var b []byte
	for _, c := range chunks {
		b = append(b, c...)
	}
	return b
}

// Address builders for regionSeed: each sets register rd to one target,
// with x1 holding ScratchpadBase.
func addrSP(rd, off uint8) []byte { return seedChunk(isa.OpAddi, rd, 1, 0, off, 0) } // x1 + off
func addrSPPow(rd, k uint8) []byte { // x1 + 1<<k
	return cat(seedChunk(isa.OpAddi, rd, 0, 0, 1, 0), seedChunk(isa.OpSlli, rd, rd, 0, k, 0), seedChunk(isa.OpAdd, rd, rd, 1, 0, 0))
}
func addrDRAM(rd, a uint8) []byte { return seedChunk(isa.OpAddi, rd, 0, 0, a, 0) } // below ScratchpadBase
func addrView(rd, m, k uint8) []byte { // m<<k: 1<<30 input view, 3<<29 output view
	return cat(seedChunk(isa.OpAddi, rd, 0, 0, m, 0), seedChunk(isa.OpSlli, rd, rd, 0, k, 0))
}
func addrCopy(rd, rs uint8) []byte { return seedChunk(isa.OpAdd, rd, rs, 0, 0, 0) }

// regionSeed builds a loop whose memory ops take their bases from two
// register banks, x5-x9 (bankA) and x18-x22 (bankB), each rotated one
// place an iteration through x30, so one load pc and one store pc meet a
// different address region every iteration. The setup sets x1 to
// ScratchpadBase and stores it there, which opens a 4-byte written prefix,
// then fills both banks; the body sums the loaded x10 into x11. The
// trailing sched byte selects the schedule (see scheduleFor).
func regionSeed(ops [][]byte, bankA, bankB [5][]byte, sched byte) []byte {
	b := cat(
		seedChunk(isa.OpAddi, 1, 0, 0, 1, 0),
		seedChunk(isa.OpSlli, 1, 1, 0, 28, 0),
		seedChunk(isa.OpSw, 0, 1, 1, 0, 0),
	)
	for _, t := range append(bankA[:], bankB[:]...) {
		b = append(b, t...)
	}
	head := uint8(len(b) / 6)
	b = append(b, cat(ops...)...)
	b = append(b, seedChunk(isa.OpAdd, 11, 11, 10, 0, 0)...)
	for _, r0 := range []uint8{5, 18} {
		b = append(b, seedChunk(isa.OpAdd, 30, r0, 0, 0, 0)...)
		for r := r0; r < r0+4; r++ {
			b = append(b, seedChunk(isa.OpAdd, r, r+1, 0, 0, 0)...)
		}
		b = append(b, seedChunk(isa.OpAdd, r0+4, 30, 0, 0, 0)...)
	}
	b = append(b, seedChunk(isa.OpJal, 0, 0, 0, head, 0)...) // back to head
	return append(b, sched)
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
	p := Translate(prog)
	sched := scheduleFor(raw)
	ref := runFuzzProgram(p, fuzzConfig(ExecPrecise), inputs, sched)
	if got := runFuzzProgram(p, fuzzConfig(ExecCompiled), inputs, sched); !reflect.DeepEqual(got, ref) {
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
