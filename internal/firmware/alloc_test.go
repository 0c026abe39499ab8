package firmware

import (
	"runtime"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/sim"
	"assasin/internal/telemetry/reqtrace"
)

// streamRunOut builds a fresh rig, submits a copy task over pages flash
// pages into the output target out, optionally with a request record
// attached, and returns the heap allocations made while the scheduler ran
// the offload (setup and teardown excluded): all of them, those of the
// runtime size class that holds one page-sized output chunk, and the bytes
// allocated.
func streamRunOut(t testing.TB, pages int, out OutTarget, traced bool) (allocs, pageAllocs, bytes uint64) {
	ps := 1024
	data := make([]byte, pages*ps)
	for i := range data {
		data[i] = byte(i * 7)
	}
	r := newRig(t)
	lpas := r.install(t, data)
	r.core.LoadProgram(cpu.Translate(copyProgram()))
	e := New(Config{PageSize: ps, Path: PathCrossbar}, r.sched, r.f, r.dram, nil)
	var tr *reqtrace.Tracer
	if traced {
		tr = reqtrace.New(nil, reqtrace.Config{TopK: 2})
		e.Req = tr.Begin("offload", "copy", 0)
	}
	if err := e.Submit([]Task{{
		Core:    r.core,
		Inputs:  []StreamSpec{{LPAs: lpas, Offset: 0, Length: int64(len(data))}},
		Outputs: []OutTarget{out},
	}}); err != nil {
		t.Fatal(err)
	}
	r.sched.Add(r.core)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := r.sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if !e.Done() {
		t.Fatal("engine incomplete")
	}
	if traced {
		tr.Complete(e.Req, int64(e.CompletionTime()))
	}
	for i, c := range m1.BySize {
		if c.Size == uint32(ps) {
			pageAllocs = c.Mallocs - m0.BySize[i].Mallocs
		}
	}
	return m1.Mallocs - m0.Mallocs, pageAllocs, m1.TotalAlloc - m0.TotalAlloc
}

// streamRun runs the copy offload into a discarded output stream and
// returns the allocations it made.
func streamRun(t testing.TB, pages int) uint64 {
	n, _, _ := streamRunOut(t, pages, OutTarget{Kind: OutDiscard}, false)
	return n
}

// streamRunTraced is streamRun with a request record attached to the
// engine, so the measured window also covers the per-page AddPage/NoteEOS
// accounting and the OnHalt NoteHalt in the data-plane hot path.
func streamRunTraced(t testing.TB, pages int) uint64 {
	n, _, _ := streamRunOut(t, pages, OutTarget{Kind: OutDiscard}, true)
	return n
}

// minAllocs returns the fewest allocations run reports over three runs of
// the given size. The counter is process-wide, so now and then a window
// also catches a few allocations the simulation did not make; those only
// ever add, so the minimum is the simulation's own count. A per-page
// allocation shows in every run and survives the minimum.
func minAllocs(t testing.TB, run func(testing.TB, int) uint64, pages int) uint64 {
	best := run(t, pages)
	for i := 1; i < 3; i++ {
		if n := run(t, pages); n < best {
			best = n
		}
	}
	return best
}

// TestReqtraceSteadyStateZeroAlloc pins the enabled-tracer cost on the same
// pipeline: with a request record attached, pushing 8x more pages through
// the data plane must not add per-page allocations — the record is
// fixed-shape and the per-page accounting is plain integer accumulation.
func TestReqtraceSteadyStateZeroAlloc(t *testing.T) {
	small := minAllocs(t, streamRunTraced, 8)
	large := minAllocs(t, streamRunTraced, 64)
	if slack := uint64(8); large > small+slack {
		t.Fatalf("per-page allocations with tracing enabled: 8 pages -> %d allocs, 64 pages -> %d allocs (want <= %d)",
			small, large, small+slack)
	}
}

// TestDataPlaneSteadyStateZeroAlloc pins the zero-copy guarantee of the
// feeder -> crossbar -> stream-buffer path: past the fixed lazy start-up
// allocations (output stream chunks, event-pool fill, program
// compilation), pushing more pages through the pipeline must allocate
// nothing. An 8x increase in page count is allowed at most a whisker of
// extra allocations, so any per-page allocation sneaking back into the
// pump/deliver/drain hot path fails the test by hundreds.
func TestDataPlaneSteadyStateZeroAlloc(t *testing.T) {
	small := minAllocs(t, streamRun, 8)
	large := minAllocs(t, streamRun, 64)
	if slack := uint64(8); large > small+slack {
		t.Fatalf("per-page allocations in steady state: 8 pages -> %d allocs, 64 pages -> %d allocs (want <= %d)",
			small, large, small+slack)
	}
}

// TestFeederBytesIndependentOfStreamLength pins the feeder's page queue to
// the pages in flight: a 1024-page copy offload into a discarded output
// allocates at most a few KiB more than a 64-page one while the scheduler
// runs, so nothing on the page path grows with the stream's length. A queue
// that kept one entry per page of the stream would add tens of KiB.
func TestFeederBytesIndependentOfStreamLength(t *testing.T) {
	bytes := func(pages int) uint64 {
		best := uint64(1 << 63)
		for i := 0; i < 3; i++ {
			_, _, b := streamRunOut(t, pages, OutTarget{Kind: OutDiscard}, false)
			best = min(best, b)
		}
		return best
	}
	small, large := bytes(64), bytes(1024)
	if slack := uint64(4 << 10); large > small+slack {
		t.Fatalf("bytes allocated grow with the stream: 64 pages -> %d B, 1024 pages -> %d B (want <= %d)",
			small, large, small+slack)
	}
}

// TestKeptOutputSteadyStateAlloc pins the ownership hand-off of kept
// output pages: on an OutToFlash stream with Collect set, flash stores each
// drained chunk and the host output keeps it, so from 8 to 64 pages the
// run allocates exactly one page-sized chunk per extra page and copies no
// page. Everything else may grow by a whisker only: the write path's
// per-block state and the host page list grow with blocks and doublings,
// not pages, so a second allocation per page fails the test by dozens.
func TestKeptOutputSteadyStateAlloc(t *testing.T) {
	kept := func(pages int) (others, chunks uint64) {
		others, chunks = 1<<63, 1<<63
		for i := 0; i < 3; i++ {
			n, pn, _ := streamRunOut(t, pages, OutTarget{Kind: OutToFlash, StartLPA: 1 << 10, Collect: true}, false)
			others, chunks = min(others, n-pn), min(chunks, pn)
		}
		return others, chunks
	}
	smallOthers, smallChunks := kept(8)
	largeOthers, largeChunks := kept(64)
	if got := largeChunks - smallChunks; got != 64-8 {
		t.Errorf("8 -> 64 kept pages allocated %d more page-sized chunks, want exactly %d", got, 64-8)
	}
	if slack := uint64(16); largeOthers > smallOthers+slack {
		t.Errorf("per-page allocations beside the kept chunks: 8 pages -> %d, 64 pages -> %d (want <= %d)",
			smallOthers, largeOthers, smallOthers+slack)
	}
}

// BenchmarkFeederPump measures the feeder-dominated page pipeline end to
// end: a 32-page copy offload through flash sense, crossbar transfer, and
// stream-buffer delivery. Allocations reported per op cover rig construction
// plus the whole run; the steady-state pump itself is alloc-free (see
// TestDataPlaneSteadyStateZeroAlloc).
func BenchmarkFeederPump(b *testing.B) {
	const pages = 32
	ps := 1024
	data := make([]byte, pages*ps)
	for i := range data {
		data[i] = byte(i * 7)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := newRig(b)
		lpas := r.install(b, data)
		r.core.LoadProgram(cpu.Translate(copyProgram()))
		e := New(Config{PageSize: ps, Path: PathCrossbar}, r.sched, r.f, r.dram, nil)
		if err := e.Submit([]Task{{
			Core:    r.core,
			Inputs:  []StreamSpec{{LPAs: lpas, Offset: 0, Length: int64(len(data))}},
			Outputs: []OutTarget{{Kind: OutDiscard}},
		}}); err != nil {
			b.Fatal(err)
		}
		r.sched.Add(r.core)
		if _, err := r.sched.Run(10 * sim.Second); err != nil {
			b.Fatal(err)
		}
		if !e.Done() {
			b.Fatal("engine incomplete")
		}
	}
}
