package nvme

import (
	"bytes"
	"testing"

	"assasin/internal/sim"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/reqtrace"
	"assasin/internal/telemetry/slo"
	"assasin/internal/telemetry/window"
)

// TestSubmitSteadyStateZeroAlloc pins the serving path's zero-alloc
// contract: once command records, trace records and window rings are warm,
// submitting and dispatching a single-page discarded read through a traced
// drive with a live SLO engine allocates nothing per command.
func TestSubmitSteadyStateZeroAlloc(t *testing.T) {
	eng, err := slo.New(slo.Config{
		Objectives: []slo.Objective{{Name: "gold", Tenant: "gold", Target: 0.999, LatencyPs: 400 * int64(sim.Microsecond)}},
		Window:     window.Config{WindowPs: 10 * int64(sim.Millisecond), Buckets: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSink()
	sink.MaxEvents = -1
	tracer := reqtrace.New(sink, reqtrace.Config{TopK: 4})
	tracer.OnComplete = func(r *reqtrace.Request) {
		eng.ObserveRequest(r.SubmitPs+r.LatencyPs, r.Tenant, r.Kind, r.LatencyPs, false)
	}
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 2, Telemetry: sink, Requests: tracer, OnAdvance: eng.Tick})
	lpas, _ := installData(t, s, 4*s.Flash.PageSize, 3)
	c := New(s, DefaultConfig())

	var completed int
	var failed error
	onDone := func(cm IOCompletion) {
		if cm.Err != nil {
			failed = cm.Err
		}
		completed++
	}
	at := sim.Time(0)
	i := 0
	one := func() {
		at += 50 * sim.Microsecond
		i++
		c.Submit(IORequest{Op: OpRead, LPA: lpas[i%len(lpas)], Pages: 1, SubmitAt: at, Tenant: "gold", Discard: true}, onDone)
		s.Sched.Events.RunUntil(at)
	}
	for w := 0; w < 500; w++ {
		one()
	}
	allocs := testing.AllocsPerRun(1000, one)
	if failed != nil {
		t.Fatal(failed)
	}
	if completed != i {
		t.Fatalf("completed %d of %d commands", completed, i)
	}
	if allocs != 0 {
		t.Fatalf("Submit+dispatch allocates %.2f per command, want 0", allocs)
	}
}

// TestCommandRecordReuse checks that a recycled command record carries
// nothing over: a read without a tenant, submitted after a tenanted write
// on the same record, sees no leftover payload or tenant, and its trace
// record is untagged.
func TestCommandRecordReuse(t *testing.T) {
	tracer := reqtrace.New(nil, reqtrace.Config{TopK: 8})
	var tenants []string
	tracer.OnComplete = func(r *reqtrace.Request) { tenants = append(tenants, r.Tenant) }
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 2, Requests: tracer})
	c := New(s, DefaultConfig())
	ps := s.Flash.PageSize
	lpa := s.ReserveLPAs(1)
	payload := bytes.Repeat([]byte{0x5a}, ps)

	var got []IOCompletion
	onDone := func(cm IOCompletion) { got = append(got, cm) }
	c.Submit(IORequest{Op: OpWrite, LPA: lpa, Pages: 1, SubmitAt: 0, Data: payload, Tenant: "gold"}, onDone)
	s.Sched.Events.RunUntil(sim.Millisecond)
	if len(c.free) != 1 {
		t.Fatalf("free list holds %d records after one command, want 1", len(c.free))
	}
	rec := c.free[0]
	if rec.comp.Req.Data != nil || rec.comp.Req.Tenant != "" || rec.onDone != nil || rec.out != nil {
		t.Fatalf("released record keeps references: %+v", rec.comp)
	}
	c.Submit(IORequest{Op: OpRead, LPA: lpa, Pages: 1, SubmitAt: 2 * sim.Millisecond}, onDone)
	if len(c.free) != 0 || rec.comp.Req.Op != OpRead {
		t.Fatal("read did not reuse the write's record")
	}
	s.Sched.Events.RunUntil(3 * sim.Millisecond)
	if len(got) != 2 {
		t.Fatalf("completed %d commands, want 2", len(got))
	}
	rd := got[1]
	if rd.Err != nil || rd.Req.Op != OpRead || rd.Req.Tenant != "" || rd.Req.Data != nil {
		t.Fatalf("read completion carries leftovers: %+v", rd.Req)
	}
	if !bytes.Equal(rd.Data, payload) {
		t.Fatal("read returned wrong data")
	}
	if len(tenants) != 2 || tenants[0] != "gold" || tenants[1] != "" {
		t.Fatalf("traced tenants = %q, want [gold \"\"]", tenants)
	}
}

// TestResubmitFromOnDone checks that an onDone which submits a follow-up
// command at the current instant is safe: the follow-up runs after the
// command that spawned it, and completions arrive in submission order.
func TestResubmitFromOnDone(t *testing.T) {
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 2})
	lpas, _ := installData(t, s, 4*s.Flash.PageSize, 5)
	c := New(s, DefaultConfig())
	const chain = 6
	var order []int
	var onDone func(cm IOCompletion)
	onDone = func(cm IOCompletion) {
		if cm.Err != nil {
			t.Fatal(cm.Err)
		}
		k := cm.Req.LPA - lpas[0]
		order = append(order, k)
		if len(order) < chain {
			next := (k + 1) % len(lpas)
			c.Submit(IORequest{Op: OpRead, LPA: lpas[next], Pages: 1, SubmitAt: s.Sched.Events.Now(), Discard: true}, onDone)
		}
	}
	c.Submit(IORequest{Op: OpRead, LPA: lpas[0], Pages: 1, SubmitAt: 0, Discard: true}, onDone)
	s.Sched.Events.RunUntil(sim.Second)
	if len(order) != chain {
		t.Fatalf("completed %d of %d chained commands", len(order), chain)
	}
	for i, k := range order {
		if k != i%len(lpas) {
			t.Fatalf("completion order %v, want submission order", order)
		}
	}
	// Each record is busy through its own onDone, so the chain alternates
	// between two records.
	if len(c.free) != 2 {
		t.Fatalf("chain used %d records, want 2 reused", len(c.free))
	}
}

// TestRunMixedMatchesSubmit checks that RunMixed's completions equal those
// of the same commands submitted one by one: both go through one command
// path, and RunMixed's slice is filled in request order.
func TestRunMixedMatchesSubmit(t *testing.T) {
	run := func(mixed bool) []IOCompletion {
		s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 2})
		lpas, _ := installData(t, s, 4*s.Flash.PageSize, 9)
		ps := s.Flash.PageSize
		wr := s.ReserveLPAs(2)
		reqs := []IORequest{
			{Op: OpRead, LPA: lpas[0], Pages: 2, SubmitAt: 0, Tenant: "gold"},
			{Op: OpWrite, LPA: wr, Pages: 2, SubmitAt: 3 * sim.Microsecond, Data: bytes.Repeat([]byte{7}, 2*ps)},
			{Op: OpRead, LPA: lpas[2], Pages: 1, SubmitAt: 3 * sim.Microsecond, Discard: true},
			{Op: OpRead, LPA: wr, Pages: 2, SubmitAt: sim.Millisecond},
		}
		c := New(s, DefaultConfig())
		if mixed {
			_, comps, err := c.RunMixed(nil, reqs, sim.Second)
			if err != nil {
				t.Fatal(err)
			}
			return comps
		}
		comps := make([]IOCompletion, len(reqs))
		for i := range reqs {
			i := i
			c.Submit(reqs[i], func(cm IOCompletion) { comps[i] = cm })
		}
		s.Sched.Events.RunUntil(sim.Second)
		return comps
	}
	a, b := run(true), run(false)
	for i := range a {
		x, y := a[i], b[i]
		if x.Done != y.Done || x.Latency != y.Latency || x.Err != y.Err || !bytes.Equal(x.Data, y.Data) ||
			x.Req.Op != y.Req.Op || x.Req.LPA != y.Req.LPA || x.Req.Tenant != y.Req.Tenant || x.Done == 0 {
			t.Fatalf("command %d: RunMixed %+v, Submit %+v", i, x, y)
		}
	}
}
