package nvme

import (
	"bytes"
	"testing"

	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/sim"
	"assasin/internal/ssd"
)

func installData(t *testing.T, s *ssd.SSD, n int, seed byte) ([]int, []byte) {
	t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)*seed + seed
	}
	lpas, err := s.InstallBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return lpas, data
}

func TestPureReads(t *testing.T) {
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 2})
	lpas, data := installData(t, s, 4*s.Flash.PageSize, 3)
	c := New(s, DefaultConfig())
	reqs := []IORequest{
		{Op: OpRead, LPA: lpas[0], Pages: 2, SubmitAt: 0},
		{Op: OpRead, LPA: lpas[2], Pages: 1, SubmitAt: 10 * sim.Microsecond},
	}
	_, comps, err := c.RunMixed(nil, reqs, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	ps := s.Flash.PageSize
	if !bytes.Equal(comps[0].Data, data[:2*ps]) {
		t.Fatal("read 0 data wrong")
	}
	if !bytes.Equal(comps[1].Data, data[2*ps:3*ps]) {
		t.Fatal("read 1 data wrong")
	}
	for _, cm := range comps {
		if cm.Latency <= 0 {
			t.Fatal("no latency recorded")
		}
		// Read latency ≈ tR + transfers: tens of microseconds.
		if cm.Latency > sim.Millisecond {
			t.Fatalf("read latency %v implausible", cm.Latency)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 2})
	c := New(s, DefaultConfig())
	ps := s.Flash.PageSize
	payload := make([]byte, 2*ps)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	start := s.ReserveLPAs(2)
	reqs := []IORequest{
		{Op: OpWrite, LPA: start, Pages: 2, SubmitAt: 0, Data: payload},
		{Op: OpRead, LPA: start, Pages: 2, SubmitAt: 10 * sim.Millisecond},
	}
	_, comps, err := c.RunMixed(nil, reqs, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(comps[1].Data, payload) {
		t.Fatal("write-then-read returned wrong data")
	}
}

// TestMixedOffloadAndIO is the Section V-A generality check: conventional
// reads are serviced while an offload streams through the ASSASIN cores,
// and both produce correct results.
func TestMixedOffloadAndIO(t *testing.T) {
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 4})
	lpas, data := installData(t, s, 512<<10, 7)
	// Reserve separate pages for concurrent host reads.
	rdLpas, rdData := installData(t, s, 4*s.Flash.PageSize, 11)

	tasks, err := s.BuildTasks(ssd.KernelRun{
		Kernel:     kernels.Stat{},
		Inputs:     [][]int{lpas},
		InputBytes: []int64{int64(len(data))},
		RecordSize: 4,
		Cores:      4,
		OutKind:    firmware.OutDiscard,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(s, DefaultConfig())
	var reqs []IORequest
	for i := 0; i < 8; i++ {
		reqs = append(reqs, IORequest{
			Op: OpRead, LPA: rdLpas[i%4], Pages: 1,
			SubmitAt: sim.Time(i) * 20 * sim.Microsecond,
		})
	}
	res, comps, err := c.RunMixed(tasks, reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The offload completed and computed the right sums.
	ranges := ssd.PartitionBytes(int64(len(data)), 4, 4)
	for i, r := range ranges {
		if got, want := res.FinalRegs[i][8], (kernels.Stat{}).RefSum(data[r.Start:r.End]); got != want {
			t.Fatalf("core %d sum wrong under mixed IO", i)
		}
	}
	// The reads returned correct data with sane latencies.
	ps := s.Flash.PageSize
	for i, cm := range comps {
		want := rdData[(i%4)*ps : (i%4+1)*ps]
		if !bytes.Equal(cm.Data, want) {
			t.Fatalf("read %d data wrong under offload", i)
		}
	}
	st := Latencies(comps)
	if st.N != 8 || st.Mean <= 0 || st.Max < st.Mean || st.P99 < st.Mean/2 {
		t.Fatalf("latency stats malformed: %+v", st)
	}
}

// TestOffloadSlowsReadsButBoth complete: contention is visible but bounded.
func TestReadLatencyUnderOffloadGrows(t *testing.T) {
	readLat := func(withOffload bool) sim.Time {
		s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 8})
		lpas, data := installData(t, s, 1<<20, 5)
		rdLpas, _ := installData(t, s, 8*s.Flash.PageSize, 9)
		var tasks []ssd.TaskSpec
		if withOffload {
			var err error
			tasks, err = s.BuildTasks(ssd.KernelRun{
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
		}
		c := New(s, DefaultConfig())
		var reqs []IORequest
		for i := 0; i < 16; i++ {
			reqs = append(reqs, IORequest{
				Op: OpRead, LPA: rdLpas[i%8], Pages: 1,
				SubmitAt: 20*sim.Microsecond + sim.Time(i)*10*sim.Microsecond,
			})
		}
		_, comps, err := c.RunMixed(tasks, reqs, 0)
		if err != nil {
			t.Fatal(err)
		}
		return Latencies(comps).Mean
	}
	idle := readLat(false)
	busy := readLat(true)
	if busy < idle {
		t.Fatalf("reads faster under offload: %v vs %v", busy, idle)
	}
	if busy > 100*idle {
		t.Fatalf("reads starved under offload: %v vs %v", busy, idle)
	}
}

func TestInvalidOpcodeRejected(t *testing.T) {
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 1})
	c := New(s, DefaultConfig())
	_, _, err := c.RunMixed(nil, []IORequest{{Op: OpSComp, Pages: 1}}, sim.Second)
	if err == nil {
		t.Fatal("scomp as conventional IO accepted")
	}
}

func TestLatenciesEmpty(t *testing.T) {
	if st := Latencies(nil); st.N != 0 {
		t.Fatal("empty stats wrong")
	}
}

func TestOpcodeStrings(t *testing.T) {
	if OpRead.String() != "read" || OpSComp.String() != "scomp" {
		t.Fatal("opcode names")
	}
}

// TestRunMixedPureIOKeepsEventClock: a pure-I/O RunMixed must not drag the
// drive's event clock to its deadline, or a later command on the same drive
// would snap its submission to that deadline and report the gap as latency.
func TestRunMixedPureIOKeepsEventClock(t *testing.T) {
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 2})
	lpas, _ := installData(t, s, 2*s.Flash.PageSize, 5)
	c := New(s, DefaultConfig())
	if _, _, err := c.RunMixed(nil, []IORequest{{Op: OpRead, LPA: lpas[0], Pages: 1}}, sim.Second); err != nil {
		t.Fatal(err)
	}
	submit := 100 * sim.Microsecond
	_, comps, err := c.RunMixed(nil, []IORequest{{Op: OpRead, LPA: lpas[1], Pages: 1, SubmitAt: submit}}, 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := comps[0]; got.Latency > sim.Millisecond || got.Done-got.Latency != submit {
		t.Fatalf("second read done %v latency %v, want a read submitted at %v taking tens of µs", got.Done, got.Latency, submit)
	}
}

// TestWriteCopiesHostPages checks a write takes its own copy of each host
// page: changing the host buffer after the write completes leaves the
// stored pages, the zero-padded short last page included, as written.
func TestWriteCopiesHostPages(t *testing.T) {
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 2})
	c := New(s, DefaultConfig())
	ps := s.Flash.PageSize
	payload := make([]byte, ps+ps/2)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	want := make([]byte, 2*ps)
	copy(want, payload)
	start := s.ReserveLPAs(2)
	_, comps, err := c.RunMixed(nil, []IORequest{{Op: OpWrite, LPA: start, Pages: 2, Data: payload}}, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := comps[0].Err; err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 0xEE
	}
	for p := 0; p < 2; p++ {
		got, _, err := s.FTL.Read(comps[0].Done, start+p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[p*ps:(p+1)*ps]) {
			t.Fatalf("page %d changed with the host buffer", p)
		}
	}
}
