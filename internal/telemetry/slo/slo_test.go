package slo

import (
	"encoding/json"
	"math"
	"testing"

	"assasin/internal/telemetry/window"
)

const (
	ms = int64(1_000_000_000)
	us = int64(1_000_000)
)

// tightEngine builds an engine with one objective over a 10 ms / 10-bucket
// window and the default rule pair.
func tightEngine(t *testing.T, obj Objective) *Engine {
	t.Helper()
	e, err := New(Config{
		Objectives: []Objective{obj},
		Window:     window.Config{WindowPs: 10 * ms, Buckets: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFastBurnFiresDeterministically(t *testing.T) {
	run := func() *Status {
		// 1 ns threshold: every request is bad -> burn = 1/(1-0.999) = 1000,
		// far above the fast-burn factor.
		e := tightEngine(t, Objective{Name: "tight", Target: 0.999, LatencyPs: 1000})
		for i := int64(0); i < 50; i++ {
			e.ObserveRequest(i*100*us, "gold", "io-read", 30*us, false)
		}
		e.Tick(5 * ms) // last closed bucket still carries bad traffic
		return e.Status(5 * ms)
	}
	s := run()
	if got := s.Firing(); got != 2 {
		b, _ := json.Marshal(s)
		t.Fatalf("firing alerts = %d, want 2 (fast and slow burn)\n%s", got, b)
	}
	fast := s.Objectives[0].Alerts[0]
	if fast.Rule != "fast-burn" || !fast.Firing {
		t.Fatalf("fast-burn not firing: %+v", fast)
	}
	if fast.BurnLong < 999 || fast.BurnShort < 999 {
		t.Fatalf("burn rates = %v/%v, want ~1000", fast.BurnLong, fast.BurnShort)
	}
	// SincePs is the first evaluated boundary after traffic appeared.
	if fast.SincePs != 1*ms {
		t.Fatalf("fast-burn since = %d, want %d", fast.SincePs, 1*ms)
	}
	// Byte-identical across runs: alert history is pure sim-time data.
	a, _ := json.Marshal(run())
	b, _ := json.Marshal(run())
	if string(a) != string(b) {
		t.Fatalf("status JSON differs between identical runs:\n%s\n%s", a, b)
	}
}

func TestAlertClearsWhenBurnStops(t *testing.T) {
	e := tightEngine(t, Objective{Name: "o", Target: 0.99, LatencyPs: 50 * us})
	// First 2 ms: all bad.
	for i := int64(0); i < 20; i++ {
		e.ObserveRequest(i*100*us, "t", "io-read", 80*us, false)
	}
	e.Tick(2 * ms)
	if s := e.Status(2 * ms); s.Firing() == 0 {
		t.Fatal("expected alerts to fire during the bad phase")
	}
	// Then sustained good traffic; the short window resets fast-burn once
	// the bad buckets leave it.
	for i := int64(30); i < 200; i++ {
		e.ObserveRequest(i*100*us, "t", "io-read", 10*us, false)
	}
	e.Tick(20 * ms)
	s := e.Status(20 * ms)
	for _, a := range s.Objectives[0].Alerts {
		if a.Firing {
			t.Fatalf("alert %s still firing after recovery: %+v", a.Rule, a)
		}
		if a.Transitions == 0 {
			t.Fatalf("alert %s recorded no transitions", a.Rule)
		}
	}
	// Error budget is cumulative: the bad phase stays on the books.
	if o := s.Objectives[0]; o.Bad != 20 || o.BudgetConsumed <= 0 {
		t.Fatalf("budget accounting lost the bad phase: %+v", o)
	}
}

func TestTenantAndClassMatching(t *testing.T) {
	e, err := New(Config{
		Objectives: []Objective{
			{Name: "gold", Tenant: "gold", Target: 0.99, LatencyPs: 50 * us},
			{Name: "silver-io", Tenant: "silver", Class: "io-read", Target: 0.9, LatencyPs: 50 * us},
			{Name: "all", Target: 0.999},
		},
		Window: window.Config{WindowPs: 10 * ms, Buckets: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.ObserveRequest(0, "gold", "io-read", 10*us, false)
	e.ObserveRequest(0, "gold", "offload", 80*us, false)    // bad for gold (latency)
	e.ObserveRequest(0, "silver", "io-write", 10*us, false) // class-filtered out of silver-io
	e.ObserveRequest(0, "silver", "io-read", 99*us, false)
	e.ObserveRequest(0, "bronze", "io-read", 0, true) // abort: bad for "all" only
	s := e.Status(0)
	byName := map[string]ObjectiveStatus{}
	for _, o := range s.Objectives {
		byName[o.Name] = o
	}
	if g := byName["gold"]; g.Good != 1 || g.Bad != 1 {
		t.Fatalf("gold good/bad = %d/%d, want 1/1", g.Good, g.Bad)
	}
	if sv := byName["silver-io"]; sv.Good+sv.Bad != 1 || sv.Bad != 1 {
		t.Fatalf("silver-io good/bad = %d/%d, want 0/1", sv.Good, sv.Bad)
	}
	if a := byName["all"]; a.Good != 4 || a.Bad != 1 {
		t.Fatalf("all good/bad = %d/%d, want 4/1 (abort is bad)", a.Good, a.Bad)
	}
}

func TestObserveRequestZeroAlloc(t *testing.T) {
	e := tightEngine(t, Objective{Name: "o", Tenant: "gold", Target: 0.999, LatencyPs: 50 * us})
	now := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 37 * us
		e.Tick(now)
		e.ObserveRequest(now, "gold", "io-read", 20*us, false)
		e.ObserveRequest(now, "silver", "io-read", 20*us, false) // non-matching
	})
	if allocs != 0 {
		t.Fatalf("request-completion path allocates %v allocs/op, want 0", allocs)
	}
	var nilE *Engine
	allocs = testing.AllocsPerRun(100, func() {
		nilE.Tick(1)
		nilE.ObserveRequest(1, "t", "c", 1, false)
		_ = nilE.Status(1)
	})
	if allocs != 0 {
		t.Fatalf("nil engine allocates %v allocs/op, want 0", allocs)
	}
}

func TestOnEvalPublicationHook(t *testing.T) {
	e := tightEngine(t, Objective{Name: "o", Target: 0.99})
	var boundaries []int64
	e.OnEval = func(b int64) { boundaries = append(boundaries, b) }
	e.ObserveRequest(0, "t", "c", 1, false)
	e.Tick(3 * ms)
	if len(boundaries) != 3 || boundaries[2] != 3*ms {
		t.Fatalf("OnEval boundaries = %v, want [1ms 2ms 3ms]", boundaries)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no objectives must be rejected")
	}
	if _, err := New(Config{Objectives: []Objective{{Name: "x", Target: 1}}}); err == nil {
		t.Fatal("target 1.0 must be rejected (zero error budget)")
	}
	if _, err := New(Config{Objectives: []Objective{{Target: 0.9}}}); err == nil {
		t.Fatal("unnamed objective must be rejected")
	}
}

func TestParseSpec(t *testing.T) {
	objs, err := ParseSpec("gold:99.9:200us,all:99:1ms,silver:99.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("parsed %d objectives, want 3", len(objs))
	}
	if o := objs[0]; o.Tenant != "gold" || math.Abs(o.Target-0.999) > 1e-12 || o.LatencyPs != 200*us {
		t.Fatalf("gold objective = %+v", o)
	}
	if o := objs[1]; o.Tenant != "" || o.LatencyPs != 1*ms {
		t.Fatalf("all objective = %+v", o)
	}
	if o := objs[2]; o.Tenant != "silver" || o.LatencyPs != 0 {
		t.Fatalf("silver availability objective = %+v", o)
	}
	for _, bad := range []string{"", "gold", "gold:0:1us", "gold:100:1us", "gold:99:20", "gold:99:1us:extra"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q must be rejected", bad)
		}
	}
}

// FuzzParseSpec checks every accepted -slo objective is usable: a target
// strictly inside (0, 1), a non-negative latency and a name.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"gold:99.9:200us,all:99:1ms,silver:99.5", "gold:NaN", "gold:NaN%:1us", "*:99.99%",
		"gold:Inf:1us", "gold:1e-320", "all:50:NaNs", "a:1:2:3", ",,", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for _, o := range objs {
			if !(o.Target > 0 && o.Target < 1) || o.LatencyPs < 0 || o.Name == "" {
				t.Fatalf("ParseSpec(%q) accepted objective %+v", spec, o)
			}
		}
	})
}

func TestParseDuration(t *testing.T) {
	cases := map[string]int64{
		"200us": 200 * us, "1ms": ms, "2.5ms": 2*ms + 500*us,
		"1s": 1_000_000_000_000, "500ns": 500_000, "42ps": 42,
	}
	for in, want := range cases {
		got, err := ParseDuration(in)
		if err != nil || got != want {
			t.Fatalf("ParseDuration(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "20", "-1us", "xus"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Fatalf("duration %q must be rejected", bad)
		}
	}
}

// TestParseDurationRange pins the finite, in-range contract: NaN, the
// infinities and anything past math.MaxInt64 ps are errors, not a
// wrapped-around negative threshold.
func TestParseDurationRange(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"NaNs", 0, false},
		{"NaNus", 0, false},
		{"Infs", 0, false},
		{"+Infms", 0, false},
		{"-Infs", 0, false},
		{"1e30s", 0, false},
		{"9.3e6s", 0, false},
		{"9223372036854775807ps", 0, false}, // rounds up to 2^63 as a float
		{"9.2e6s", 9_200_000_000_000_000_000, true},
		{"0s", 0, true},
		{"-0ns", 0, true},
	} {
		got, err := ParseDuration(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseDuration(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseDuration(%q) = %d, want an error", tc.in, got)
		}
	}
	if objs, err := ParseSpec("gold:99.9:NaNus"); err == nil {
		t.Errorf("ParseSpec accepted a NaN latency: %+v", objs)
	}
}

// FuzzParseDuration checks that ParseDuration never panics and that every
// accepted duration is non-negative. Run a bounded pass with
// go test ./internal/telemetry/slo -run '^$' -fuzz FuzzParseDuration -fuzztime 5s
func FuzzParseDuration(f *testing.F) {
	for _, s := range []string{"200us", "2.5ms", "1s", "42ps", "-1us", "NaNs", "Infs", "1e30s", "9.3e6s", "20"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if v, err := ParseDuration(s); err == nil && v < 0 {
			t.Fatalf("ParseDuration(%q) = %d with no error", s, v)
		}
	})
}
