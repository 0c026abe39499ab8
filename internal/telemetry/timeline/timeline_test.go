package timeline

import (
	"bytes"
	"testing"

	"assasin/internal/telemetry"
)

func TestNilSamplerIsDisabled(t *testing.T) {
	var s *Sampler
	s.Tick(12345)
	s.AddProbe(func(emit func(string, int64)) { t.Fatal("probe on nil sampler") })
	if tl := s.Finish("x", 100); tl != nil {
		t.Fatalf("nil sampler Finish = %+v, want nil", tl)
	}
}

func TestTickFastPathsAllocateNothing(t *testing.T) {
	var nilSampler *Sampler
	if n := testing.AllocsPerRun(1000, func() { nilSampler.Tick(1 << 40) }); n != 0 {
		t.Errorf("nil sampler Tick allocates %v/op", n)
	}
	s := New(nil, Config{IntervalPs: 1 << 40})
	if n := testing.AllocsPerRun(1000, func() { s.Tick(1) }); n != 0 {
		t.Errorf("pre-boundary Tick allocates %v/op", n)
	}
}

func TestCounterRatesAndGaugeValues(t *testing.T) {
	sink := telemetry.NewSink()
	c := sink.Counter("fw", "pages")
	c.Add(7) // pre-sampler increments must not leak into the first interval
	g := sink.Gauge("isb", "occ")
	g.Set(3)

	s := New(sink, Config{IntervalPs: 100})
	c.Add(10)
	g.Set(5)
	s.Tick(100)
	c.Add(4)
	g.Set(2)
	s.Tick(250) // crosses 200 only; sample covers (100, 200]
	tl := s.Finish("run", 250)

	if got := tl.TimesPs; len(got) != 3 || got[0] != 100 || got[1] != 200 || got[2] != 250 {
		t.Fatalf("TimesPs = %v, want [100 200 250]", got)
	}
	pages := tl.SeriesByKey("fw/pages")
	if pages == nil || pages.Kind != "rate" {
		t.Fatalf("fw/pages series = %+v", pages)
	}
	if pages.Values[0] != 10 || pages.Values[1] != 4 || pages.Values[2] != 0 {
		t.Errorf("fw/pages values = %v, want [10 4 0]", pages.Values)
	}
	occ := tl.SeriesByKey("isb/occ")
	if occ == nil || occ.Kind != "value" {
		t.Fatalf("isb/occ series = %+v", occ)
	}
	if occ.Values[0] != 5 || occ.Values[1] != 2 || occ.Values[2] != 2 {
		t.Errorf("isb/occ values = %v, want [5 2 2]", occ.Values)
	}
}

func TestLateRegisteredMetricIsBackfilled(t *testing.T) {
	sink := telemetry.NewSink()
	sink.Counter("a", "x").Add(1)
	s := New(sink, Config{IntervalPs: 10})
	s.Tick(20)
	sink.Counter("b", "y").Add(5) // predates discovery: dropped by priming
	s.Tick(30)
	sink.Counter("b", "y").Add(7)
	s.Tick(40)
	tl := s.Finish("run", 40)

	y := tl.SeriesByKey("b/y")
	if y == nil {
		t.Fatal("late counter has no series")
	}
	// Discovered (and primed) at the third sample: backfilled zeros before
	// it, then deltas of post-discovery increments only.
	if len(y.Values) != 4 || y.Values[0] != 0 || y.Values[1] != 0 || y.Values[2] != 0 || y.Values[3] != 7 {
		t.Errorf("b/y values = %v, want [0 0 0 7]", y.Values)
	}
}

func TestDecimationPreservesRateIntegrals(t *testing.T) {
	sink := telemetry.NewSink()
	c := sink.Counter("fw", "bytes")
	s := New(sink, Config{IntervalPs: 10})

	const ticks = 5000 // past capacity, so the series decimate twice
	var total int64
	for i := 1; i <= ticks; i++ {
		c.Add(int64(i))
		total += int64(i)
		s.Tick(int64(10 * i))
	}
	tl := s.Finish("run", 10*ticks)

	if tl.Decimations == 0 || tl.IntervalPs <= tl.BaseIntervalPs {
		t.Fatalf("expected decimation: %d decims, interval %d (base %d)",
			tl.Decimations, tl.IntervalPs, tl.BaseIntervalPs)
	}
	if len(tl.TimesPs) > capacity {
		t.Errorf("capacity exceeded: %d samples", len(tl.TimesPs))
	}
	var sum int64
	for _, v := range tl.SeriesByKey("fw/bytes").Values {
		sum += v
	}
	if sum != total {
		t.Errorf("rate integral = %d, want %d (decimation must preserve sums)", sum, total)
	}
	if last := tl.TimesPs[len(tl.TimesPs)-1]; last != 10*ticks {
		t.Errorf("last timestamp = %d, want %d", last, 10*ticks)
	}
}

// classProbe builds a probe from a schedule of cumulative values per tick.
func classProbe(vals map[string][]int64, tick *int) Probe {
	return func(emit func(string, int64)) {
		for key, vs := range vals {
			i := *tick
			if i >= len(vs) {
				i = len(vs) - 1
			}
			emit(key, vs[i])
		}
	}
}

func TestPhaseSegmentation(t *testing.T) {
	// Four samples dominated by class/a, then four by class/b.
	s := New(nil, Config{IntervalPs: 10})
	tick := 0
	s.AddProbe(classProbe(map[string][]int64{
		"class/a": {9, 18, 27, 36, 37, 38, 39, 40},
		"class/b": {1, 2, 3, 4, 13, 22, 31, 40},
	}, &tick))
	for i := 1; i <= 8; i++ {
		tick = i - 1
		s.Tick(int64(10 * i))
	}
	tl := s.Finish("run", 80)

	if len(tl.Phases) != 2 {
		t.Fatalf("phases = %+v, want 2", tl.Phases)
	}
	a, b := tl.Phases[0], tl.Phases[1]
	if a.Class != "a" || a.StartPs != 0 || a.EndPs != 40 || a.Samples != 4 {
		t.Errorf("phase a = %+v", a)
	}
	if b.Class != "b" || b.StartPs != 40 || b.EndPs != 80 || b.Samples != 4 {
		t.Errorf("phase b = %+v", b)
	}
	if a.ClassPs["a"] != 36 || a.ClassPs["b"] != 4 {
		t.Errorf("phase a class_ps = %v", a.ClassPs)
	}
	if b.ClassPs["a"] != 4 || b.ClassPs["b"] != 36 {
		t.Errorf("phase b class_ps = %v", b.ClassPs)
	}
}

func TestPhaseSmoothingMergesFlickers(t *testing.T) {
	s := New(nil, Config{IntervalPs: 10})
	tick := 0
	// One-sample class/b flicker inside a class/a run merges away.
	s.AddProbe(classProbe(map[string][]int64{
		"class/a": {5, 10, 10, 15, 20, 25},
		"class/b": {1, 2, 8, 9, 10, 11},
	}, &tick))
	for i := 1; i <= 6; i++ {
		tick = i - 1
		s.Tick(int64(10 * i))
	}
	tl := s.Finish("run", 60)

	if len(tl.Phases) != 1 {
		t.Fatalf("phases = %+v, want one smoothed phase", tl.Phases)
	}
	p := tl.Phases[0]
	if p.Class != "a" || p.Samples != 6 || p.StartPs != 0 || p.EndPs != 60 {
		t.Errorf("smoothed phase = %+v", p)
	}
}

func TestLeadingIdlePhase(t *testing.T) {
	s := New(nil, Config{IntervalPs: 10})
	tick := 0
	s.AddProbe(classProbe(map[string][]int64{
		"class/a": {0, 0, 0, 10, 20, 30},
	}, &tick))
	for i := 1; i <= 6; i++ {
		tick = i - 1
		s.Tick(int64(10 * i))
	}
	tl := s.Finish("run", 60)

	if len(tl.Phases) != 2 || tl.Phases[0].Class != "idle" || tl.Phases[1].Class != "a" {
		t.Fatalf("phases = %+v, want [idle a]", tl.Phases)
	}
	if tl.Phases[0].EndPs != 30 || tl.Phases[1].StartPs != 30 {
		t.Errorf("idle boundary wrong: %+v", tl.Phases)
	}
}

func TestTimelineJSONIsDeterministic(t *testing.T) {
	build := func() *Timeline {
		sink := telemetry.NewSink()
		c := sink.Counter("fw", "pages")
		g := sink.Gauge("isb", "occ")
		s := New(sink, Config{IntervalPs: 10})
		tick := 0
		s.AddProbe(classProbe(map[string][]int64{
			"class/x": {3, 6, 9, 12, 15, 18, 21, 24, 27, 30},
		}, &tick))
		const ticks = 2100 // past capacity, so the series decimate
		for i := 1; i <= ticks; i++ {
			tick = i - 1
			c.Add(int64(i))
			g.Set(int64(i % 3))
			s.Tick(int64(10 * i))
		}
		return s.Finish("run", 10*ticks)
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("timeline JSON not byte-identical:\n%s\nvs\n%s", a.String(), b.String())
	}
}
