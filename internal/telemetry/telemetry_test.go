package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCounterRegistrationGetOrCreate(t *testing.T) {
	s := NewSink()
	a := s.Counter("xbar", "grants")
	b := s.Counter("xbar", "grants")
	if a != b {
		t.Fatalf("same (component,name) returned distinct counters")
	}
	a.Inc()
	a.Add(4)
	if got := b.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
	// Distinct names and components are distinct metrics.
	if s.Counter("xbar", "conflicts") == a {
		t.Fatalf("different name returned same counter")
	}
	if s.Counter("flash", "grants") == a {
		t.Fatalf("different component returned same counter")
	}
}

func TestKindCollisionPanics(t *testing.T) {
	s := NewSink()
	s.Counter("sched", "dispatches")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("re-registering counter as gauge did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "sched/dispatches") {
			t.Fatalf("panic message %v does not name the colliding metric", r)
		}
	}()
	s.Gauge("sched", "dispatches")
}

// TestNilSinkNoOp is the zero-cost contract: every operation on a nil sink
// and on the nil metrics/tracks it hands out must be a safe no-op.
func TestNilSinkNoOp(t *testing.T) {
	var s *Sink
	c := s.Counter("x", "c")
	g := s.Gauge("x", "g")
	h := s.Histogram("x", "h")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil sink returned non-nil metrics")
	}
	c.Inc()
	c.Add(10)
	g.Set(3)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 || h.Sum() != 0 || h.MaxValue() != 0 {
		t.Fatalf("nil metrics reported nonzero values")
	}
	if h.Percentile(0.99) != 0 {
		t.Fatalf("nil histogram percentile not 0")
	}
	s.StartRun("r")
	tr := s.Track("lane")
	if tr != nil {
		t.Fatalf("nil sink returned non-nil track")
	}
	tr.Span("s", 0, 10)
	tr.Instant("i", 5)
	if s.EventCount() != 0 || s.Metrics().TraceDropped != 0 || s.Events() != nil {
		t.Fatalf("nil sink buffered events")
	}
	if s.Registered() != nil {
		t.Fatalf("nil sink reported metrics")
	}
	m := s.Metrics()
	if m.Counters != nil || m.TraceEvents != 0 {
		t.Fatalf("nil sink metrics snapshot not empty: %+v", m)
	}
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil sink WriteChromeTrace: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil sink trace is not valid JSON: %v", err)
	}
}

func TestNilSinkZeroAllocs(t *testing.T) {
	var s *Sink
	c := s.Counter("x", "c")
	h := s.Histogram("x", "h")
	tr := s.Track("lane")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		h.Observe(3)
		_ = h.Percentile(0.5)
		tr.Instant("i", 1)
	})
	if allocs != 0 {
		t.Fatalf("nil-sink ops allocated %.1f/op, want 0", allocs)
	}
}

func TestGaugeAndHistogram(t *testing.T) {
	s := NewSink()
	g := s.Gauge("q", "depth")
	g.Set(5)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 5 {
		t.Fatalf("gauge value/max = %d/%d, want 2/5", g.Value(), g.Max())
	}
	h := s.Histogram("q", "occ")
	for _, v := range []int64{0, 1, 3, 8} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 12 || h.MaxValue() != 8 {
		t.Fatalf("histogram count/sum/max = %d/%d/%d, want 4/12/8", h.Count(), h.Sum(), h.MaxValue())
	}
	m := s.Metrics()
	hs := m.Histograms["q/occ"]
	if hs.Mean != 3 {
		t.Fatalf("histogram mean = %v, want 3", hs.Mean)
	}
	gs := m.Gauges["q/depth"]
	if gs.Value != 2 || gs.Max != 5 {
		t.Fatalf("gauge snapshot = %+v", gs)
	}
}

func TestTraceRunsTracksAndCap(t *testing.T) {
	s := NewSink()
	s.StartRun("first")
	a := s.Track("core0")
	a.Span("exec", 1000, 3000, Arg{"insts", 42})
	a.Instant("halt", 3000)
	s.StartRun("second")
	b := s.Track("core0") // same name, new run: distinct track
	b.Span("exec", 0, 500)

	evs := s.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Run != "first" || evs[0].Track != "core0" || evs[0].Phase != "X" ||
		evs[0].TsPs != 1000 || evs[0].DurPs != 2000 || evs[0].Args["insts"] != 42 {
		t.Fatalf("span event mismatch: %+v", evs[0])
	}
	if evs[1].Phase != "i" || evs[1].Name != "halt" {
		t.Fatalf("instant event mismatch: %+v", evs[1])
	}
	if evs[2].Run != "second" {
		t.Fatalf("second-run event mismatch: %+v", evs[2])
	}

	// Cap: further events are counted, not appended.
	s.MaxEvents = s.EventCount()
	b.Instant("x", 1)
	b.Instant("y", 2)
	if s.EventCount() != 3 || s.dropped != 2 {
		t.Fatalf("cap not enforced: %d events, %d dropped", s.EventCount(), s.dropped)
	}
	if s.Metrics().TraceDropped != 2 {
		t.Fatalf("dropped count missing from metrics snapshot")
	}
}

func TestChromeTraceExportShape(t *testing.T) {
	s := NewSink()
	s.StartRun("stat/AssasinSb")
	tr := s.Track("sched")
	tr.Span("dispatch", 2_000_000, 5_000_000, Arg{"pid", 7}) // 2..5 µs
	tr.Instant("wake", 5_000_000)

	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	// process_name + thread_name metadata, then the two events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d traceEvents, want 4", len(doc.TraceEvents))
	}
	meta := doc.TraceEvents[0]
	if meta["ph"] != "M" || meta["name"] != "process_name" {
		t.Fatalf("first event is not process_name metadata: %v", meta)
	}
	span := doc.TraceEvents[2]
	if span["ph"] != "X" || span["ts"].(float64) != 2 || span["dur"].(float64) != 3 {
		t.Fatalf("span ts/dur not converted ps->µs: %v", span)
	}
	inst := doc.TraceEvents[3]
	if inst["ph"] != "i" || inst["s"] != "t" {
		t.Fatalf("instant shape wrong: %v", inst)
	}
}

func TestMetricsJSONDeterministic(t *testing.T) {
	build := func() *Sink {
		s := NewSink()
		s.Counter("b", "two").Add(2)
		s.Counter("a", "one").Inc()
		s.Gauge("z", "g").Set(9)
		s.Histogram("m", "h").Observe(4)
		return s
	}
	var x, y bytes.Buffer
	if err := build().WriteMetricsJSON(&x); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteMetricsJSON(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Fatalf("metrics JSON not deterministic:\n%s\nvs\n%s", x.String(), y.String())
	}
	if !strings.Contains(x.String(), `"a/one": 1`) {
		t.Fatalf("flat key missing: %s", x.String())
	}
}

// TestAbsorbMatchesOneSink checks that absorbing per-run child sinks
// builds the trace and metrics one sink would have recorded had every run
// started on it in turn: pids follow the root's runs, the root's event cap
// holds across absorptions, and the children's own drops add up.
func TestAbsorbMatchesOneSink(t *testing.T) {
	const maxEvents = 5
	record := func(s *Sink, run string, events int) {
		s.StartRun(run)
		tr := s.Track("core0")
		for i := 0; i < events; i++ {
			tr.Span("exec", int64(i)*10, int64(i)*10+5, Arg{Key: "i", Val: int64(i)})
		}
		s.Track("fw").FlowStart("req", 1, 7)
		s.Counter("sched", "dispatches").Add(int64(events))
		s.Histogram("sched", "quantum_used_ps").Observe(int64(events))
	}
	runs := []struct {
		label  string
		events int
	}{{"a", 2}, {"b", 4}, {"c", 9}}

	one := NewSink()
	one.MaxEvents = maxEvents
	root := NewSink()
	root.MaxEvents = maxEvents
	for _, r := range runs {
		record(one, r.label, r.events)
		child := NewSink()
		child.MaxEvents = root.MaxEvents
		record(child, r.label, r.events)
		root.Absorb(child)
	}

	var want, got bytes.Buffer
	if err := one.WriteChromeTrace(&want); err != nil {
		t.Fatal(err)
	}
	if err := root.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Errorf("absorbed trace differs from one sink's:\n--- one\n%s\n--- absorbed\n%s", want.String(), got.String())
	}
	if one.dropped != root.dropped || root.dropped != 13 {
		t.Errorf("dropped: one sink %d, absorbed %d, want 13", one.dropped, root.dropped)
	}
	wm, gm := one.Metrics(), root.Metrics()
	if !equalJSON(t, wm, gm) {
		t.Errorf("absorbed metrics differ from one sink's: %+v vs %+v", gm, wm)
	}

	// A metrics-only root keeps no events from a child that recorded some.
	bare := NewSink()
	bare.MaxEvents = -1
	bare.Absorb(root)
	if bare.EventCount() != 0 || bare.Metrics().Counters["sched/dispatches"] != 15 {
		t.Errorf("metrics-only root: %d events, dispatches %d", bare.EventCount(), bare.Metrics().Counters["sched/dispatches"])
	}
}

// equalJSON compares two values by their JSON encoding.
func equalJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}
