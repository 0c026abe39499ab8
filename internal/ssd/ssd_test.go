package ssd

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"assasin/internal/firmware"
	"assasin/internal/kernels"
)

// makeWords returns n bytes of deterministic pseudo-random data.
func makeWords(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	rng.Read(data)
	return data
}

// runStat offloads the Stat kernel over data on a fresh SSD of arch a and
// returns the result plus the expected per-core sums.
func runStat(t *testing.T, a Arch, data []byte, cores int) (*Result, []uint32) {
	t.Helper()
	s := New(Options{Arch: a, Cores: cores})
	lpas, err := s.InstallBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunKernel(KernelRun{
		Kernel:     kernels.Stat{},
		Inputs:     [][]int{lpas},
		InputBytes: []int64{int64(len(data))},
		RecordSize: 4,
		Cores:      cores,
		OutKind:    firmware.OutDiscard,
	})
	if err != nil {
		t.Fatalf("%v: %v", a, err)
	}
	ranges := PartitionBytes(int64(len(data)), cores, 4)
	var want []uint32
	for _, r := range ranges {
		want = append(want, kernels.Stat{}.RefSum(data[r.Start:r.End]))
	}
	return res, want
}

func TestStatOffloadAllArchitectures(t *testing.T) {
	data := makeWords(128<<10, 1)
	for _, a := range AllArchs() {
		res, want := runStat(t, a, data, 4)
		for i, w := range want {
			if got := res.FinalRegs[i][8]; got != w { // S0 = x8
				t.Errorf("%v core %d sum = %#x, want %#x", a, i, got, w)
			}
		}
		if res.Duration <= 0 {
			t.Errorf("%v: zero duration", a)
		}
	}
}

func TestStatMemoryWallOrdering(t *testing.T) {
	data := makeWords(512<<10, 2)
	tp := map[Arch]float64{}
	for _, a := range AllArchs() {
		res, _ := runStat(t, a, data, 8)
		tp[a] = res.Throughput()
	}
	// The paper's Fig. 13 ordering for the memory-bound Stat kernel:
	// ASSASIN variants beat Prefetch which beats (or matches) Baseline;
	// stream buffers beat software-managed scratchpads.
	if !(tp[AssasinSb] > tp[Baseline]) {
		t.Errorf("AssasinSb (%.0f MB/s) not faster than Baseline (%.0f MB/s)", tp[AssasinSb]/1e6, tp[Baseline]/1e6)
	}
	if !(tp[AssasinSb] >= tp[AssasinSp]) {
		t.Errorf("AssasinSb (%.0f) < AssasinSp (%.0f)", tp[AssasinSb]/1e6, tp[AssasinSp]/1e6)
	}
	if !(tp[Prefetch] >= tp[Baseline]) {
		t.Errorf("Prefetch (%.0f) < Baseline (%.0f)", tp[Prefetch]/1e6, tp[Baseline]/1e6)
	}
	if sp := tp[AssasinSb] / tp[Baseline]; sp < 1.3 || sp > 4 {
		t.Errorf("Sb/Baseline speedup %.2f outside plausible range", sp)
	}
	// Sb$ == Sb when state fits the scratchpad.
	ratio := tp[AssasinSbCache] / tp[AssasinSb]
	if ratio < 0.97 || ratio > 1.03 {
		t.Errorf("Sb$ deviates from Sb: ratio %.3f", ratio)
	}
}

func TestFilterOffloadFunctional(t *testing.T) {
	const tupleSize = 32
	nTuples := 4096
	data := make([]byte, nTuples*tupleSize)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < nTuples; i++ {
		for f := 0; f < tupleSize/4; f++ {
			binary.LittleEndian.PutUint32(data[i*tupleSize+f*4:], uint32(rng.Intn(1000)))
		}
	}
	k := kernels.Filter{
		TupleSize: tupleSize,
		Preds: []kernels.FieldPred{
			{Offset: 0, Lo: 100, Hi: 600},
			{Offset: 16, Lo: 0, Hi: 800},
		},
	}
	for _, a := range []Arch{Baseline, AssasinSb, AssasinSp, UDP} {
		s := New(Options{Arch: a, Cores: 4})
		lpas, err := s.InstallBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunKernel(KernelRun{
			Kernel:     k,
			Inputs:     [][]int{lpas},
			InputBytes: []int64{int64(len(data))},
			RecordSize: tupleSize,
			Cores:      4,
			OutKind:    firmware.OutToHost,
			Collect:    true,
		})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		var got []byte
		for _, outs := range res.Outputs {
			got = append(got, outs[0]...)
		}
		ref, err := k.Reference([][]byte{data})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref[0]) {
			t.Fatalf("%v: filter output mismatch: got %d bytes, want %d", a, len(got), len(ref[0]))
		}
		if len(ref[0]) == 0 || len(ref[0]) == len(data) {
			t.Fatal("degenerate selectivity; fix test data")
		}
	}
}

func TestRAID4WritePathOffload(t *testing.T) {
	k := kernels.RAID4{K: 4}
	streamLen := 64 << 10
	var inputs [][]byte
	var lpaLists [][]int
	s := New(Options{Arch: AssasinSb, Cores: 2})
	for i := 0; i < 4; i++ {
		d := makeWords(streamLen, int64(10+i))
		inputs = append(inputs, d)
		lpas, err := s.InstallBytes(d)
		if err != nil {
			t.Fatal(err)
		}
		lpaLists = append(lpaLists, lpas)
	}
	res, err := s.RunKernel(KernelRun{
		Kernel:     k,
		Inputs:     lpaLists,
		InputBytes: []int64{int64(streamLen), int64(streamLen), int64(streamLen), int64(streamLen)},
		RecordSize: 4,
		Cores:      2,
		OutKind:    firmware.OutToFlash,
		Collect:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, outs := range res.Outputs {
		got = append(got, outs[0]...)
	}
	ref, _ := k.Reference(inputs)
	if !bytes.Equal(got, ref[0]) {
		t.Fatalf("parity mismatch: got %d bytes want %d", len(got), len(ref[0]))
	}
	if st := s.FTL.Stats(); st.HostWrites == 0 {
		t.Error("parity never written to flash")
	}
}

func TestRAID6TwoOutputs(t *testing.T) {
	k := kernels.RAID6{K: 4}
	streamLen := 16 << 10
	var inputs [][]byte
	var lpaLists [][]int
	s := New(Options{Arch: AssasinSb, Cores: 2})
	for i := 0; i < 4; i++ {
		d := makeWords(streamLen, int64(20+i))
		inputs = append(inputs, d)
		lpas, err := s.InstallBytes(d)
		if err != nil {
			t.Fatal(err)
		}
		lpaLists = append(lpaLists, lpas)
	}
	res, err := s.RunKernel(KernelRun{
		Kernel:     k,
		Inputs:     lpaLists,
		InputBytes: []int64{int64(streamLen), int64(streamLen), int64(streamLen), int64(streamLen)},
		RecordSize: 4,
		Cores:      2,
		OutKind:    firmware.OutToHost,
		Collect:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var gotP, gotQ []byte
	for _, outs := range res.Outputs {
		gotP = append(gotP, outs[0]...)
		gotQ = append(gotQ, outs[1]...)
	}
	ref, _ := k.Reference(inputs)
	if !bytes.Equal(gotP, ref[0]) {
		t.Fatal("P parity mismatch")
	}
	if !bytes.Equal(gotQ, ref[1]) {
		t.Fatal("Q parity mismatch")
	}
}

func TestScanSaturatesFlash(t *testing.T) {
	data := makeWords(2<<20, 5)
	s := New(Options{Arch: AssasinSb, Cores: 8})
	lpas, err := s.InstallBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunKernel(KernelRun{
		Kernel:     kernels.Scan{},
		Inputs:     [][]int{lpas},
		InputBytes: []int64{int64(len(data))},
		RecordSize: 16,
		Cores:      8,
		OutKind:    firmware.OutDiscard,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8 cores at ~0.94 GB/s against an 8 GB/s array: expect multi-GB/s.
	if tp := res.Throughput(); tp < 4e9 {
		t.Errorf("scan throughput %.2f GB/s, want > 4", tp/1e9)
	}
	// Every core consumed exactly its share.
	ranges := PartitionBytes(int64(len(data)), 8, 16)
	for i, r := range ranges {
		if got := res.CoreStats[i].StreamInBytes; got != r.Len() {
			t.Errorf("core %d consumed %d bytes, want %d", i, got, r.Len())
		}
	}
}

func TestPartitionBytes(t *testing.T) {
	rs := PartitionBytes(1000, 4, 100)
	if len(rs) != 4 {
		t.Fatalf("ranges = %v", rs)
	}
	var total int64
	prev := int64(0)
	for _, r := range rs {
		if r.Start != prev {
			t.Fatalf("gap in partition: %v", rs)
		}
		if r.Start%100 != 0 {
			t.Fatalf("range not record aligned: %v", r)
		}
		total += r.Len()
		prev = r.End
	}
	if total != 1000 {
		t.Fatalf("coverage %d", total)
	}
	// Fewer records than cores.
	rs = PartitionBytes(200, 8, 100)
	if len(rs) != 2 {
		t.Fatalf("small partition = %v", rs)
	}
	// Tail bytes go to the last range.
	rs = PartitionBytes(250, 2, 100)
	if rs[len(rs)-1].End != 250 {
		t.Fatalf("tail lost: %v", rs)
	}
}

func TestSpecForRange(t *testing.T) {
	s := New(Options{Arch: AssasinSb, Cores: 1})
	ps := int64(s.Flash.PageSize)
	lpas := make([]int, 10)
	for i := range lpas {
		lpas[i] = i
	}
	spec := s.SpecForRange(lpas, ByteRange{ps + 100, 3*ps - 50})
	if len(spec.LPAs) != 2 || spec.LPAs[0] != 1 {
		t.Fatalf("spec pages = %v", spec.LPAs)
	}
	if spec.Offset != 100 || spec.Length != 2*ps-150 {
		t.Fatalf("spec window = %+v", spec)
	}
}

func TestArchStrings(t *testing.T) {
	if Baseline.String() != "Baseline" || AssasinSbCache.String() != "AssasinSb$" {
		t.Error("arch names wrong")
	}
	if len(AllArchs()) != 6 {
		t.Error("want 6 architectures")
	}
}

func TestSequentialOffloads(t *testing.T) {
	s := New(Options{Arch: AssasinSb, Cores: 2})
	dataA := makeWords(64<<10, 9)
	dataB := makeWords(32<<10, 10)
	lpasA, _ := s.InstallBytes(dataA)
	lpasB, _ := s.InstallBytes(dataB)
	runFor := func(lpas []int, n int) *Result {
		t.Helper()
		res, err := s.RunKernel(KernelRun{
			Kernel: kernels.Stat{}, Inputs: [][]int{lpas},
			InputBytes: []int64{int64(n)}, RecordSize: 4, Cores: 2,
			OutKind: firmware.OutDiscard,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// One stream buffer per request: the first runs on the buffer New
	// built, the second on a fresh one.
	built := s.Systems[0].Streams
	resA := runFor(lpasA, len(dataA))
	if s.Systems[0].Streams != built {
		t.Fatal("the first request rebuilt the stream buffer New built")
	}
	resB := runFor(lpasB, len(dataB))
	if s.Systems[0].Streams == built {
		t.Fatal("the second request ran on the first request's stream buffer")
	}
	for i, r := range PartitionBytes(int64(len(dataA)), 2, 4) {
		if got, want := resA.FinalRegs[i][8], (kernels.Stat{}).RefSum(dataA[r.Start:r.End]); got != want {
			t.Fatalf("request A core %d sum wrong", i)
		}
	}
	for i, r := range PartitionBytes(int64(len(dataB)), 2, 4) {
		if got, want := resB.FinalRegs[i][8], (kernels.Stat{}).RefSum(dataB[r.Start:r.End]); got != want {
			t.Fatalf("request B core %d sum wrong", i)
		}
	}
	if resA.Duration <= 0 || resB.Duration <= 0 {
		t.Fatal("durations not per-request")
	}
	// The second request's duration is for its own (smaller) work, not the
	// cumulative timeline.
	if resB.Duration > resA.Duration {
		t.Fatalf("second request duration %v exceeds first %v", resB.Duration, resA.Duration)
	}
}
