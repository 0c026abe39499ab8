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
	"assasin/internal/telemetry"
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
		t.Fatalf("engine incomplete: cores=%d feeders=%d drains=%d", e.liveCores, e.liveFeeders, e.liveDrains)
	}
}

func TestEngineStreamsPagesToCore(t *testing.T) {
	r := newRig(t)
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i*7 + i/1024) // each page differs
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

// TestEngineDeliversInStreamOrderPastBusyChannel stripes a stream over both
// channels while channel 0's bus is kept busy, so pages on the idle channel
// finish their transfers before the earlier pages of the same stream. Pages
// must still push in stream order, each at its own delivery instant, and
// those instants must not decrease: a page from the idle channel waits for
// its predecessor. deliverNext relies on this, because it delivers the
// pending head whenever any delivery event fires.
func TestEngineDeliversInStreamOrderPastBusyChannel(t *testing.T) {
	r := newRig(t)
	data := make([]byte, 8*1024)
	for i := range data {
		data[i] = byte(i*13 + i/1024) // each page differs
	}
	lpas := r.install(t, data)
	arr := r.f.Array()
	busyUntil := sim.Time(0)
	for i := 0; i < 200; i++ {
		done, err := arr.Transfer(0, 0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		busyUntil = done
	}
	r.core.LoadProgram(cpu.Translate(copyProgram()))
	e := New(Config{PageSize: 1024, Path: PathCrossbar}, r.sched, r.f, r.dram, nil)
	sink := telemetry.NewSink()
	e.Tel = NewTel(sink)
	if err := e.Submit([]Task{{
		Core:    r.core,
		Inputs:  []StreamSpec{{LPAs: lpas, Length: int64(len(data))}},
		Outputs: []OutTarget{{Kind: OutToHost, Collect: true}},
	}}); err != nil {
		t.Fatal(err)
	}
	var pushes []sim.Time
	in := r.sys.Streams.In[0]
	onPush := in.OnPush
	in.OnPush = func(at sim.Time) {
		pushes = append(pushes, at)
		onPush(at)
	}
	r.sched.Add(r.core)
	if _, err := r.sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if !e.Done() {
		t.Fatal("engine incomplete")
	}
	if got := e.Collected(0, 0); !bytes.Equal(got, data) {
		t.Fatal("pages arrived out of stream order")
	}

	// The feeder's page spans, emitted in stream order, end at each page's
	// delivery instant.
	var avail []sim.Time
	var channel []int64
	for _, ev := range sink.Events() {
		if ev.Track == "fw/core0/in0" && ev.Name == "page" {
			avail = append(avail, sim.Time(ev.TsPs+ev.DurPs))
			channel = append(channel, ev.Args["channel"])
		}
	}
	if len(avail) != len(lpas) || len(pushes) != len(lpas) {
		t.Fatalf("%d page spans and %d pushes for %d pages", len(avail), len(pushes), len(lpas))
	}
	waited := false
	for i := range avail {
		if pushes[i] != avail[i] {
			t.Fatalf("page %d pushed at %v, delivered at %v", i, pushes[i], avail[i])
		}
		if i == 0 {
			continue
		}
		if avail[i] < avail[i-1] {
			t.Fatalf("page %d (channel %d) delivered at %v, before page %d at %v",
				i, channel[i], avail[i], i-1, avail[i-1])
		}
		if channel[i] == 1 && channel[i-1] == 0 && avail[i] == avail[i-1] && avail[i] > busyUntil {
			waited = true
		}
	}
	if !waited {
		t.Fatal("no idle-channel page waited for its busy-channel predecessor; the test does not exercise ordering")
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
		data[i] = byte(i*3 + i/1024) // each page differs
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

// TestFlashOutputMatchesCollected checks a kept output stream: flash
// stores each drained page and the host output collects the same pages,
// so every output LPA reads back as its share of the collected bytes (the
// short last page zero-padded), and both equal the input.
func TestFlashOutputMatchesCollected(t *testing.T) {
	r := newRig(t)
	ps := 1024
	data := make([]byte, 5*ps+300)
	for i := range data {
		data[i] = byte(i*5 + i/ps*3 + 1) // each page differs
	}
	lpas := r.install(t, data)
	r.core.LoadProgram(cpu.Translate(copyProgram()))
	e := New(Config{PageSize: ps, Path: PathCrossbar}, r.sched, r.f, r.dram, nil)
	outStart := 100
	runEngine(t, r, e, []Task{{
		Core:    r.core,
		Inputs:  []StreamSpec{{LPAs: lpas, Length: int64(len(data))}},
		Outputs: []OutTarget{{Kind: OutToFlash, StartLPA: outStart, Collect: true}},
	}})
	got := e.Collected(0, 0)
	if !bytes.Equal(got, data) {
		t.Fatalf("collected %d bytes differ from the %d copied", len(got), len(data))
	}
	for p := 0; p*ps < len(got); p++ {
		stored, _, err := r.f.Read(0, outStart+p)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, ps)
		copy(want, got[p*ps:])
		if !bytes.Equal(stored, want) {
			t.Fatalf("output lpa %d differs from collected page %d", outStart+p, p)
		}
	}
}

func TestEngineDRAMStagePathChargesDRAM(t *testing.T) {
	r := newRig(t)
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

// TestCollectedJoinsDrainedPages checks the host output keeps every
// drained page in order, short last page included, and joins them once
// into a slice of exactly their length: a later read returns the same
// slice without joining again.
func TestCollectedJoinsDrainedPages(t *testing.T) {
	d := &drainer{}
	if got := d.output(); got != nil {
		t.Fatalf("no pages collected, output %v, want nil", got)
	}
	var want []byte
	for i := 0; i < 200; i++ {
		page := bytes.Repeat([]byte{byte(i)}, 1024)
		if i == 199 {
			page = page[:100]
		}
		d.collected = append(d.collected, page)
		want = append(want, page...)
	}
	got := d.output()
	if !bytes.Equal(got, want) {
		t.Fatal("joined output diverges from the drained pages")
	}
	if cap(got) != len(got) {
		t.Fatalf("joined output has cap %d for %d bytes, want them equal", cap(got), len(got))
	}
	if again := d.output(); &again[0] != &got[0] || len(again) != len(got) {
		t.Fatal("a second read joined the pages again")
	}
}
