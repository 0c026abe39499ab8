package experiments

import (
	"encoding/json"
	"math"
	"testing"

	"assasin/internal/sim"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/slo"
	"assasin/internal/telemetry/window"
)

// loadQuickFor builds a small load run for worker-count comparisons.
func loadQuickFor(workers int) (Config, LoadConfig) {
	cfg := Quick()
	cfg.Cores = 4
	cfg.Workers = workers
	lc := QuickLoad()
	lc.Drives = 4
	lc.Requests = 800
	return cfg, lc
}

// TestLoadParallelDeterminism pins the per-run-sink contract for the load
// experiment: every drive owns a private PRNG, tracer, and SLO engine, so
// the full result — SLO statuses, alert history, live snapshots, tenant
// tables — is byte-identical for any -parallel setting.
func TestLoadParallelDeterminism(t *testing.T) {
	run := func(workers int) []byte {
		cfg, lc := loadQuickFor(workers)
		r, err := RunLoad(cfg, lc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(r, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := run(1)
	par := run(4)
	if string(seq) != string(par) {
		t.Fatalf("load result differs between -parallel 1 and 4:\nseq %d bytes, par %d bytes", len(seq), len(par))
	}
}

// TestLoadRollingReconcilesWithCumulative pins the window/reqtrace
// reconciliation: with a window wider than the whole run, the rolling
// latency view of the catch-all objective is the same distribution the
// tracer accumulated — identical counts and P99.
func TestLoadRollingReconcilesWithCumulative(t *testing.T) {
	cfg := Quick()
	cfg.Cores = 4
	lc := QuickLoad()
	lc.Drives = 1
	lc.Requests = 2000
	// One window bucket outlives the run, so nothing rotates out.
	lc.Window = window.Config{WindowPs: int64(sim.Second), Buckets: 10}
	r, err := RunLoad(cfg, lc)
	if err != nil {
		t.Fatal(err)
	}
	d := r.Drives[0]
	var all *slo.ObjectiveStatus
	for i := range d.Status.Objectives {
		if d.Status.Objectives[i].Name == "all" {
			all = &d.Status.Objectives[i]
		}
	}
	if all == nil {
		t.Fatal("no catch-all objective in status")
	}
	// The catch-all matches every completed request the tracer saw (the IO
	// stream plus the offload).
	if got := all.Good + all.Bad; got != d.TracerCount {
		t.Fatalf("objective saw %d requests, tracer %d", got, d.TracerCount)
	}
	if d.TracerCount < int64(lc.Requests) {
		t.Fatalf("tracer count %d < %d submitted requests", d.TracerCount, lc.Requests)
	}
	// Same samples through the same histogram code: the rolling P99 over the
	// run-spanning window IS the cumulative P99.
	if all.P99Ps != d.TracerP99Ps {
		t.Fatalf("rolling P99 %v != reqtrace cumulative P99 %v", all.P99Ps, d.TracerP99Ps)
	}
	// The live snapshot's catch-all latency series reconciles the same way.
	for _, h := range d.Live.Hists {
		if h.Name == "all/latency" {
			if h.P99Ps != h.TotalP99Ps || h.P99Ps != d.TracerP99Ps {
				t.Fatalf("live hist P99 %v / total %v disagree with tracer %v",
					h.P99Ps, h.TotalP99Ps, d.TracerP99Ps)
			}
		}
	}
}

// TestLoadTightObjectiveFiresFastBurn pins deterministic alerting under
// load: a 1 ns latency objective makes every request bad, so the fast-burn
// page fires — identically on every run.
func TestLoadTightObjectiveFiresFastBurn(t *testing.T) {
	run := func() *LoadResult {
		cfg := Quick()
		cfg.Cores = 4
		lc := QuickLoad()
		lc.Drives = 1
		lc.Requests = 1500
		lc.Objectives = []slo.Objective{
			{Name: "tight", Target: 0.999, LatencyPs: 1000},
		}
		r, err := RunLoad(cfg, lc)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := run()
	if r.Firing == 0 {
		b, _ := json.Marshal(r.Drives[0].Status)
		t.Fatalf("tight objective fired no alerts\n%s", b)
	}
	st := r.Drives[0].Status.Objectives[0]
	fast := st.Alerts[0]
	if fast.Rule != "fast-burn" || !fast.Firing || fast.SincePs == 0 {
		t.Fatalf("fast-burn not firing: %+v", fast)
	}
	if fast.BurnLong < 999 || fast.BurnShort < 999 {
		t.Fatalf("burn rates %v/%v, want ~1000 (every request bad)", fast.BurnLong, fast.BurnShort)
	}
	a, _ := json.Marshal(r)
	b, _ := json.Marshal(run())
	if string(a) != string(b) {
		t.Fatal("alert history differs between identical runs")
	}
}

// TestParseLoadSpec pins the -load flag grammar: overlay semantics over a
// base config, comma-separated tenants inside a semicolon-separated pair
// list, durations for the window, and fail-fast on unknown keys.
func TestParseLoadSpec(t *testing.T) {
	base := DefaultLoad()
	lc, err := ParseLoadSpec("requests=5000; rate=3e5;tenants=a,b,c;read=0.9;window=20ms;buckets=40;seed=7", base)
	if err != nil {
		t.Fatal(err)
	}
	if lc.Requests != 5000 || lc.RatePerSec != 3e5 || lc.ReadFraction != 0.9 || lc.Seed != 7 {
		t.Fatalf("parsed %+v", lc)
	}
	if len(lc.Tenants) != 3 || lc.Tenants[0] != "a" || lc.Tenants[2] != "c" {
		t.Fatalf("tenants %v", lc.Tenants)
	}
	if lc.Window.WindowPs != 20*int64(sim.Millisecond) || lc.Window.Buckets != 40 {
		t.Fatalf("window %+v", lc.Window)
	}
	// Untouched keys keep the base values.
	if lc.Drives != base.Drives || lc.OffloadMB != base.OffloadMB {
		t.Fatalf("overlay clobbered base: %+v", lc)
	}
	if _, err := ParseLoadSpec("requets=5", base); err == nil {
		t.Fatal("typo key accepted")
	}
	if _, err := ParseLoadSpec("requests", base); err == nil {
		t.Fatal("missing value accepted")
	}
	if _, err := ParseLoadSpec("requests=abc", base); err == nil {
		t.Fatal("bad int accepted")
	}
	if got, err := ParseLoadSpec("", base); err != nil || got.Requests != base.Requests {
		t.Fatalf("empty spec changed base: %+v err %v", got, err)
	}
	for _, bad := range []string{"zipfs=NaN", "rate=NaN", "rate=+Inf", "read=nan", "zipfv=-inf", "offloadmb=Inf"} {
		if _, err := ParseLoadSpec(bad, base); err == nil {
			t.Errorf("non-finite %q accepted", bad)
		}
	}
}

// FuzzParseLoadSpec checks the -load grammar never accepts a non-finite
// float: NaN passes every range check in withDefaults (it once hung the
// Zipf key generator) and an infinite rate runs as if unbounded.
func FuzzParseLoadSpec(f *testing.F) {
	for _, s := range []string{
		"requests=5000; rate=3e5;tenants=a,b,c;read=0.9;window=20ms;buckets=40;seed=7",
		"zipfs=NaN", "rate=NaN", "rate=Inf", "read=-Inf", "zipfv=1e309", "offloadmb=0x1p-2",
		"zipfs=1.5;zipfv=2", "window=NaNs", "keys=8;pages=16", "=;;=", "",
	} {
		f.Add(s)
	}
	base := DefaultLoad()
	f.Fuzz(func(t *testing.T, spec string) {
		lc, err := ParseLoadSpec(spec, base)
		if err != nil {
			return
		}
		for _, v := range []float64{lc.RatePerSec, lc.ReadFraction, lc.ZipfS, lc.ZipfV, lc.OffloadMB} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParseLoadSpec(%q) accepted non-finite %v: %+v", spec, v, lc)
			}
		}
	})
}

// TestLoadOnEvalPublishes pins the live-serving hook: burn evaluations
// deliver coherent snapshots at bucket boundaries, in sim-time order.
func TestLoadOnEvalPublishes(t *testing.T) {
	cfg := Quick()
	cfg.Cores = 4
	lc := QuickLoad()
	lc.Drives = 1
	lc.Requests = 1000
	var boundaries []int64
	lc.OnEval = func(drive int, st *slo.Status, live *window.Snapshot) {
		if drive != 0 || st == nil || live == nil {
			t.Fatalf("bad publication: drive=%d st=%v live=%v", drive, st, live)
		}
		if st.NowPs != live.NowPs {
			t.Fatalf("status at %d, live at %d", st.NowPs, live.NowPs)
		}
		boundaries = append(boundaries, st.NowPs)
	}
	if _, err := RunLoad(cfg, lc); err != nil {
		t.Fatal(err)
	}
	if len(boundaries) == 0 {
		t.Fatal("no evaluation boundaries published")
	}
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			t.Fatalf("boundaries not increasing: %v", boundaries)
		}
	}
}

// TestLoadDriveRecords pins what each load drive's record carries:
// -requests K keeps at most K requests (K = 0 keeps none, though the SLO
// engine is still fed by a tracer), and the record holds no input bytes,
// so its attribution report shows no byte throughput.
func TestLoadDriveRecords(t *testing.T) {
	for _, k := range []int{0, 2} {
		cfg := Quick()
		cfg.Cores = 4
		cfg.Workers = 1
		cfg.Requests = k
		var recs []analyze.Run
		cfg.OnRunDone = func(r analyze.Run) { recs = append(recs, r) }
		lc := QuickLoad()
		lc.Drives = 2
		lc.Requests = 300
		r, err := RunLoad(cfg, lc)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != lc.Drives {
			t.Fatalf("K=%d: %d drive records, want %d", k, len(recs), lc.Drives)
		}
		for i, rec := range recs {
			switch {
			case k == 0 && rec.Requests != nil:
				t.Errorf("K=0: %s keeps a request summary", rec.Label)
			case k > 0 && rec.Requests == nil:
				t.Errorf("K=%d: %s keeps no request summary", k, rec.Label)
			case k > 0 && (len(rec.Requests.Slowest) == 0 || len(rec.Requests.Slowest) > k):
				t.Errorf("K=%d: %s keeps %d requests, want 1 to %d", k, rec.Label, len(rec.Requests.Slowest), k)
			}
			if d := r.Drives[i]; d.TracerCount < int64(lc.Requests) {
				t.Errorf("K=%d: drive %d traced %d of %d requests", k, i, d.TracerCount, lc.Requests)
			}
			if rec.InputBytes != 0 {
				t.Errorf("%s carries %d input bytes, want 0", rec.Label, rec.InputBytes)
			}
			if rep := analyze.Attribute(rec); rep.ThroughputBps != 0 {
				t.Errorf("%s report throughput = %v, want 0", rec.Label, rep.ThroughputBps)
			}
		}
	}
}
