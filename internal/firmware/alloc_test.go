package firmware

import (
	"runtime"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/sim"
	"assasin/internal/telemetry/reqtrace"
)

// streamRun builds a fresh rig, submits a copy task over pages flash pages,
// and returns the number of heap allocations performed while the scheduler
// ran the offload (setup and teardown excluded).
func streamRun(t testing.TB, pages int) uint64 {
	ps := 1024
	data := make([]byte, pages*ps)
	for i := range data {
		data[i] = byte(i * 7)
	}
	r := newRig(t)
	lpas := r.install(t, data)
	r.core.LoadProgram(cpu.Translate(copyProgram()))
	e := New(Config{PageSize: ps, Path: PathCrossbar}, r.sched, r.f, r.dram, nil)
	if err := e.Submit([]Task{{
		Core:    r.core,
		Inputs:  []StreamSpec{{LPAs: lpas, Offset: 0, Length: int64(len(data))}},
		Outputs: []OutTarget{{Kind: OutDiscard}},
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
	return m1.Mallocs - m0.Mallocs
}

// streamRunTraced is streamRun with a request record attached to the
// engine, so the measured window also covers the per-page AddPage/NoteEOS
// accounting and the OnHalt NoteHalt in the data-plane hot path.
func streamRunTraced(t testing.TB, pages int) uint64 {
	ps := 1024
	data := make([]byte, pages*ps)
	for i := range data {
		data[i] = byte(i * 7)
	}
	r := newRig(t)
	lpas := r.install(t, data)
	r.core.LoadProgram(cpu.Translate(copyProgram()))
	e := New(Config{PageSize: ps, Path: PathCrossbar}, r.sched, r.f, r.dram, nil)
	tr := reqtrace.New(nil, reqtrace.Config{TopK: 2})
	e.Req = tr.Begin("offload", "copy", 0)
	if err := e.Submit([]Task{{
		Core:    r.core,
		Inputs:  []StreamSpec{{LPAs: lpas, Offset: 0, Length: int64(len(data))}},
		Outputs: []OutTarget{{Kind: OutDiscard}},
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
	tr.Complete(e.Req, int64(e.CompletionTime()))
	return m1.Mallocs - m0.Mallocs
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
// allocations (stream rings, event-pool fill, program compilation), pushing
// more pages through the pipeline must allocate nothing. An 8x increase in
// page count is allowed at most a whisker of extra allocations, so any
// per-page allocation sneaking back into the pump/deliver/drain hot path
// fails the test by hundreds.
func TestDataPlaneSteadyStateZeroAlloc(t *testing.T) {
	small := minAllocs(t, streamRun, 8)
	large := minAllocs(t, streamRun, 64)
	if slack := uint64(8); large > small+slack {
		t.Fatalf("per-page allocations in steady state: 8 pages -> %d allocs, 64 pages -> %d allocs (want <= %d)",
			small, large, small+slack)
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
