package ssd

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"assasin/internal/asm"
	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/memhier"
)

// filterKernel returns the TPC-H Q6-style filter, built from fresh slices on
// every call.
func filterKernel() kernels.Filter {
	return kernels.Filter{
		TupleSize: 32,
		Preds: []kernels.FieldPred{
			{Offset: 16, Lo: 19940101, Hi: 19941231},
			{Offset: 0, Lo: 0, Hi: 23},
		},
	}
}

// mlpWeights returns n small weights starting at first.
func mlpWeights(n int, first int32) []int32 {
	w := make([]int32, n)
	for i := range w {
		w[i] = int32(i%7) - 3
	}
	w[0] = first
	return w
}

// Kernel types a value snapshot cannot cover: they bypass the memo.
type (
	funcKernel struct {
		kernels.Stat
		hook func()
	}
	ptrKernel struct {
		kernels.Stat
		p *int
	}
)

// TestBuildMemo pins the memo's key: equal kernel values share one program
// and translation however their slices were made, any field or BuildParams
// change gets its own entry, a caller's later change to its slices cannot
// reach an entry, kernel types holding pointers or funcs bypass it, and it
// never holds more than its capacity.
func TestBuildMemo(t *testing.T) {
	m := newProgramMemo(programMemoCap)
	stream := kernels.BuildParams{Style: kernels.StyleStream, PageSize: 4096, StateBase: memhier.ScratchpadBase}
	build := func(m *programMemo, k kernels.Kernel, p kernels.BuildParams) *asm.Program {
		t.Helper()
		prog, _, err := m.build(k, p)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Name != k.Name() {
			t.Fatalf("%s program named %q", k.Name(), prog.Name)
		}
		return prog
	}

	a, b := build(m, filterKernel(), stream), build(m, filterKernel(), stream)
	if a != b {
		t.Fatal("equal Filters built from fresh slices got two programs")
	}
	if code := m.translation(a); code != m.translation(b) || m.byProg[b].code != code {
		t.Fatal("equal Filters do not share one translation")
	}

	// Each variant differs from the one before it in one field.
	filterLo := filterKernel()
	filterLo.Preds[1].Lo = 1
	weights := kernels.MLP{Weights: mlpWeights(16*16+16+16+1, 2)}
	weightsW0 := kernels.MLP{Weights: mlpWeights(16*16+16+16+1, 3)}
	key := make([]byte, 16)
	key0 := make([]byte, 16)
	key0[0] = 1
	variants := []kernels.Kernel{
		filterKernel(), filterLo,
		weights, weightsW0,
		kernels.AES{Key: key}, kernels.AES{Key: key0},
		kernels.Dedup{}, kernels.Dedup{ChunkSize: 256},
	}
	params := []kernels.BuildParams{
		stream,
		{Style: kernels.StyleSoftware, PageSize: 4096, StateBase: memhier.ScratchpadBase},
		{Style: kernels.StyleSoftware, PageSize: 2048, StateBase: memhier.ScratchpadBase},
		{Style: kernels.StyleSoftware, PageSize: 2048, StateBase: memhier.DRAMBase},
	}
	seen := map[*asm.Program]string{}
	for _, p := range params {
		for i, k := range variants {
			prog := build(m, k, p)
			if prev, dup := seen[prog]; dup {
				t.Errorf("variant %d of %s with %+v shares its program with %s", i, k.Name(), p, prev)
			}
			seen[prog] = k.Name()
			if build(m, k, p) != prog {
				t.Errorf("variant %d of %s with %+v is not memoized", i, k.Name(), p)
			}
		}
	}
	if got, want := len(m.byKey), len(variants)*len(params); got != want {
		t.Errorf("memo holds %d entries, want %d", got, want)
	}

	// Mutating the caller's slices after a build cannot reach the entry:
	// the mutated value gets its own program, built from the new value.
	f := filterKernel()
	before := build(m, f, stream)
	f.Preds[0].Lo = 19950101
	after := build(m, f, stream)
	if after == before {
		t.Fatal("a Filter mutated after its build returned the stale program")
	}
	fresh, err := f.Build(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Insts, fresh.Insts) {
		t.Fatal("the mutated Filter's program differs from a fresh build")
	}
	if build(m, filterKernel(), stream) != before {
		t.Fatal("the original Filter value lost its entry")
	}

	// Bypass: a fresh program on every call, and no translation kept.
	entries := len(m.byKey)
	for _, k := range []kernels.Kernel{funcKernel{hook: func() {}}, ptrKernel{}} {
		x, y := build(m, k, stream), build(m, k, stream)
		if x == y || m.byProg[x] != nil || m.translation(x) == m.translation(x) {
			t.Errorf("%T did not bypass the memo", k)
		}
	}
	if len(m.byKey) != entries {
		t.Errorf("bypassing kernels added %d entries", len(m.byKey)-entries)
	}

	// The bound: once full, builds are correct but not kept.
	small := newProgramMemo(2)
	for u := 1; u <= 4; u++ {
		build(small, kernels.Scan{Unroll: u}, stream)
	}
	if len(small.byKey) != 2 || len(small.byProg) != 2 {
		t.Fatalf("a memo of capacity 2 holds %d entries and %d translations", len(small.byKey), len(small.byProg))
	}
	if build(small, kernels.Scan{Unroll: 1}, stream) != build(small, kernels.Scan{Unroll: 1}, stream) {
		t.Error("an entry made before the memo filled was lost")
	}
	if build(small, kernels.Scan{Unroll: 4}, stream) == build(small, kernels.Scan{Unroll: 4}, stream) {
		t.Error("a full memo kept a new entry")
	}
}

// TestSharedProgramParallel runs one kernel on fresh SSDs from several
// goroutines at once, starting from a cold memo entry, so the goroutines
// race to build and translate the program and then all run the one that
// was published, with its shared translation and state image. Each result
// must equal a later serial run byte for byte. make race runs it under
// the race detector.
func TestSharedProgramParallel(t *testing.T) {
	data := makeWords(16<<10, 21)
	// A key no other test uses keeps the memo entry cold.
	key := bytes.Repeat([]byte{0x5a}, 16)
	run := func(a Arch) (*Result, *asm.Program, error) {
		s := New(Options{Arch: a, Cores: 2})
		lpas, err := s.InstallBytes(data)
		if err != nil {
			return nil, nil, err
		}
		tasks, err := s.BuildTasks(KernelRun{
			Kernel: kernels.AES{Key: key}, Inputs: [][]int{lpas}, InputBytes: []int64{int64(len(data))},
			RecordSize: 16, Cores: 2, OutKind: firmware.OutToFlash, Collect: true,
		})
		if err != nil {
			return nil, nil, err
		}
		res, err := s.RunOffload(tasks, 0)
		return res, tasks[0].Program, err
	}
	const workers = 4
	for _, a := range []Arch{Baseline, AssasinSb} {
		var wg sync.WaitGroup
		results := make([]*Result, workers)
		progs := make([]*asm.Program, workers)
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				results[w], progs[w], errs[w] = run(a)
			}(w)
		}
		wg.Wait()
		want, prog, err := run(a)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				t.Fatalf("%s worker %d: %v", a, w, errs[w])
			}
			if progs[w] != prog {
				t.Errorf("%s worker %d ran its own program, not the shared one", a, w)
			}
			if !reflect.DeepEqual(results[w], want) {
				t.Errorf("%s worker %d: result differs from the serial run (duration %v vs %v)", a, w, results[w].Duration, want.Duration)
			}
		}
	}
}
