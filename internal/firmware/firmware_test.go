package firmware

import (
	"bytes"
	"testing"

	"assasin/internal/asm"
	"assasin/internal/cpu"
	"assasin/internal/flash"
	"assasin/internal/ftl"
	"assasin/internal/memhier"
	"assasin/internal/sim"
)

// rig bundles a minimal SSD data plane for firmware tests: 2-channel flash,
// FTL, DRAM, scheduler and one core.
type rig struct {
	sched *sim.Scheduler
	f     *ftl.FTL
	dram  *memhier.DRAM
	core  *cpu.Core
	sys   *memhier.System
}

func newRig(t testing.TB) *rig {
	t.Helper()
	cfg := flash.DefaultConfig()
	cfg.Channels = 2
	cfg.ChipsPerChannel = 4
	cfg.PageSize = 1024
	cfg.BlocksPerChip = 32
	cfg.PagesPerBlock = 16
	arr := flash.New(cfg)
	f := ftl.New(arr, nil)
	dram := memhier.NewDRAM(memhier.DefaultDRAMConfig())
	sys := &memhier.System{
		Clock:      sim.NewClock(1e9),
		Scratchpad: memhier.NewScratchpad(16 << 10),
		DRAM:       dram,
		Backing:    memhier.NewSparseMem(),
		Streams:    memhier.NewStreamBuffer(2, 4, 4, cfg.PageSize),
		ViewPath:   memhier.ViewScratchpad,
		Client:     memhier.DRAMClient{Name: "core0"},
	}
	core := cpu.New(cpu.DefaultConfig("core0"), sys)
	return &rig{sched: sim.NewScheduler(), f: f, dram: dram, core: core, sys: sys}
}

func (r *rig) install(t testing.TB, data []byte) []int {
	t.Helper()
	ps := r.f.Array().Config().PageSize
	var lpas []int
	for off, lpa := 0, 0; off < len(data); off, lpa = off+ps, lpa+1 {
		end := off + ps
		if end > len(data) {
			end = len(data)
		}
		if err := r.f.Install(lpa, data[off:end]); err != nil {
			t.Fatal(err)
		}
		lpas = append(lpas, lpa)
	}
	return lpas
}

// copyProgram streams input slot 0 to output slot 0 until EOS.
func copyProgram() *asm.Program {
	b := asm.New()
	loop := b.Here()
	b.StreamLoad(asm.A0, 0, 1)
	b.StreamStore(0, 1, asm.A0)
	b.J(loop)
	return b.MustBuild()
}

func runEngine(t *testing.T, r *rig, e *Engine, tasks []Task) {
	t.Helper()
	if err := e.Submit(tasks); err != nil {
		t.Fatal(err)
	}
	r.sched.Add(r.core)
	if _, err := r.sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if err := r.core.Err(); err != nil {
		t.Fatal(err)
	}
	if !e.Done() {
		c, f, d := e.LiveCounts()
		t.Fatalf("engine incomplete: cores=%d feeders=%d drains=%d", c, f, d)
	}
}

func TestEngineStreamsPagesToCore(t *testing.T) {
	r := newRig(t)
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	lpas := r.install(t, data)
	r.core.LoadProgram(cpu.Translate(copyProgram()))
	e := New(Config{PageSize: 1024, Path: PathCrossbar}, r.sched, r.f, r.dram, nil)
	runEngine(t, r, e, []Task{{
		Core:   r.core,
		Inputs: []StreamSpec{{LPAs: lpas, Offset: 0, Length: int64(len(data))}},
		Outputs: []OutTarget{
			{Kind: OutToHost, Collect: true},
		},
	}})
	if got := e.Collected(0, 0); !bytes.Equal(got, data) {
		t.Fatalf("copied %d bytes, want %d", len(got), len(data))
	}
	if e.CompletionTime() <= 0 {
		t.Fatal("no completion time")
	}
}

func TestEngineTrimsPartialPages(t *testing.T) {
	r := newRig(t)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	lpas := r.install(t, data)
	r.core.LoadProgram(cpu.Translate(copyProgram()))
	e := New(Config{PageSize: 1024, Path: PathCrossbar}, r.sched, r.f, r.dram, nil)
	// A window that starts and ends mid-page.
	spec := StreamSpec{LPAs: lpas[0:3], Offset: 100, Length: 2000}
	runEngine(t, r, e, []Task{{
		Core:    r.core,
		Inputs:  []StreamSpec{spec},
		Outputs: []OutTarget{{Kind: OutToHost, Collect: true}},
	}})
	want := data[100:2100]
	if got := e.Collected(0, 0); !bytes.Equal(got, want) {
		t.Fatalf("trimmed stream wrong: %d bytes, want %d", len(got), len(want))
	}
}

func TestEngineWritesResultsToFlash(t *testing.T) {
	r := newRig(t)
	data := make([]byte, 2048)
	for i := range data {
		data[i] = byte(i * 3)
	}
	lpas := r.install(t, data)
	r.core.LoadProgram(cpu.Translate(copyProgram()))
	e := New(Config{PageSize: 1024, Path: PathCrossbar}, r.sched, r.f, r.dram, nil)
	outStart := 100
	runEngine(t, r, e, []Task{{
		Core:    r.core,
		Inputs:  []StreamSpec{{LPAs: lpas, Length: int64(len(data))}},
		Outputs: []OutTarget{{Kind: OutToFlash, StartLPA: outStart, Collect: true}},
	}})
	// The copied data must be durably in flash at the output LPAs.
	page0, _, err := r.f.Read(0, outStart)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page0, data[:1024]) {
		t.Fatal("flash output page 0 wrong")
	}
	if st := r.f.Stats(); st.HostWrites < 2 {
		t.Fatalf("flash writes = %d", st.HostWrites)
	}
}

func TestEngineDRAMStagePathChargesDRAM(t *testing.T) {
	r := newRig(t)
	r.sys.ViewPath = memhier.ViewScratchpad // copy program uses stream ops anyway
	data := make([]byte, 2048)
	lpas := r.install(t, data)
	r.core.LoadProgram(cpu.Translate(copyProgram()))
	e := New(Config{PageSize: 1024, Path: PathDRAMStage}, r.sched, r.f, r.dram, nil)
	runEngine(t, r, e, []Task{{
		Core:    r.core,
		Inputs:  []StreamSpec{{LPAs: lpas, Length: int64(len(data))}},
		Outputs: []OutTarget{{Kind: OutDiscard}},
	}})
	if got := r.dram.Client("fill").WriteBytes; got != 2048 {
		t.Fatalf("fill traffic = %d, want 2048", got)
	}
}

func TestEngineDRAMCopyPathChargesTwice(t *testing.T) {
	r := newRig(t)
	data := make([]byte, 2048)
	lpas := r.install(t, data)
	r.core.LoadProgram(cpu.Translate(copyProgram()))
	e := New(Config{PageSize: 1024, Path: PathDRAMCopy}, r.sched, r.f, r.dram, nil)
	runEngine(t, r, e, []Task{{
		Core:    r.core,
		Inputs:  []StreamSpec{{LPAs: lpas, Length: int64(len(data))}},
		Outputs: []OutTarget{{Kind: OutDiscard}},
	}})
	if w := r.dram.Client("fill").WriteBytes; w != 2048 {
		t.Fatalf("fill = %d", w)
	}
	if rd := r.dram.Client("fw-copy").ReadBytes; rd != 2048 {
		t.Fatalf("firmware copy reads = %d", rd)
	}
}

func TestEngineEmptyStreamCompletes(t *testing.T) {
	r := newRig(t)
	r.core.LoadProgram(cpu.Translate(copyProgram()))
	e := New(Config{PageSize: 1024, Path: PathCrossbar}, r.sched, r.f, r.dram, nil)
	runEngine(t, r, e, []Task{{
		Core:    r.core,
		Inputs:  []StreamSpec{{LPAs: nil, Length: 0}},
		Outputs: []OutTarget{{Kind: OutToHost, Collect: true}},
	}})
	if got := e.Collected(0, 0); len(got) != 0 {
		t.Fatalf("empty stream produced %d bytes", len(got))
	}
}

func TestEngineUnmappedLPAFails(t *testing.T) {
	r := newRig(t)
	r.core.LoadProgram(cpu.Translate(copyProgram()))
	e := New(Config{PageSize: 1024, Path: PathCrossbar}, r.sched, r.f, r.dram, nil)
	if err := e.Submit([]Task{{
		Core:    r.core,
		Inputs:  []StreamSpec{{LPAs: []int{999}, Length: 1024}},
		Outputs: []OutTarget{{Kind: OutDiscard}},
	}}); err != nil {
		t.Fatal(err)
	}
	r.sched.Add(r.core)
	r.sched.Run(sim.Second)
	if e.Err() == nil {
		t.Fatal("unmapped LPA not reported")
	}
}

func TestEngineTooManyStreamsRejected(t *testing.T) {
	r := newRig(t)
	r.core.LoadProgram(cpu.Translate(copyProgram()))
	e := New(Config{PageSize: 1024, Path: PathCrossbar}, r.sched, r.f, r.dram, nil)
	var ins []StreamSpec
	for i := 0; i < 20; i++ {
		ins = append(ins, StreamSpec{})
	}
	if err := e.Submit([]Task{{Core: r.core, Inputs: ins}}); err == nil {
		t.Fatal("20 inputs accepted with 2 slots")
	}
}
