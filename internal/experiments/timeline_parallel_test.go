package experiments

import (
	"bytes"
	"sync"
	"testing"

	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/timeline"
)

// captureTable2 runs the Table II survey with per-run telemetry and
// timelines at the given pool width, returning the absorbed root-sink
// metrics JSON and each run's timeline JSON keyed by label.
func captureTable2(t *testing.T, workers int) (string, map[string]string) {
	t.Helper()
	cfg := quickFor(workers)
	root := telemetry.NewSink()
	root.MaxEvents = -1 // metrics-only: private per-run sinks
	cfg.Telemetry = root
	cfg.Timeline = &timeline.Config{IntervalPs: 1_000_000}
	var mu sync.Mutex
	timelines := make(map[string]string)
	cfg.OnRunDone = func(rec analyze.Run) {
		if rec.Timeline == nil {
			t.Errorf("%s: no timeline on record", rec.Label)
			return
		}
		if rec.Metrics == nil || rec.Metrics.Counters["fw/pages_fed"] <= 0 {
			t.Errorf("%s: per-run metrics snapshot missing or empty", rec.Label)
		}
		var buf bytes.Buffer
		if err := rec.Timeline.WriteJSON(&buf); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		timelines[rec.Label] = buf.String()
		mu.Unlock()
	}
	if _, err := Table2(cfg); err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if err := root.WriteMetricsJSON(&mbuf); err != nil {
		t.Fatal(err)
	}
	return mbuf.String(), timelines
}

// TestTimelineParallelDeterminism checks the parallel-safe metrics path end
// to end: with per-run sinks absorbed at run boundaries, both the merged
// root snapshot and every per-run timeline are byte-identical between
// sequential and 4-way parallel execution.
func TestTimelineParallelDeterminism(t *testing.T) {
	seqMetrics, seqTLs := captureTable2(t, 1)
	parMetrics, parTLs := captureTable2(t, 4)

	if seqMetrics != parMetrics {
		t.Errorf("absorbed metrics snapshots differ between workers=1 and workers=4:\n--- seq\n%s\n--- par\n%s",
			seqMetrics, parMetrics)
	}
	if len(seqTLs) == 0 || len(seqTLs) != len(parTLs) {
		t.Fatalf("timeline counts differ: %d vs %d", len(seqTLs), len(parTLs))
	}
	for label, seq := range seqTLs {
		if par, ok := parTLs[label]; !ok {
			t.Errorf("parallel run missing timeline for %s", label)
		} else if seq != par {
			t.Errorf("%s: timeline JSON differs between workers=1 and workers=4", label)
		}
	}
}

// TestObservedFanOutParallelSafe runs the experiments that build their own
// SSDs outside runStandalone (Fig 19's skew pairs, the DRAM ablation,
// Fig 15's query pairs and the load drives) against a metrics-only root
// sink, sequentially and 4-way parallel. Every run goes through the one
// Observer, so each gets a private sink absorbed at its boundary: the
// merged snapshots must be byte-identical, and under -race no run may touch
// the shared root except through Absorb and Metrics.
func TestObservedFanOutParallelSafe(t *testing.T) {
	lc := QuickLoad()
	lc.Drives = 3
	lc.Requests = 300
	capture := func(workers int) map[string]string {
		out := make(map[string]string)
		for _, exp := range []struct {
			name string
			run  func(Config) error
		}{
			{"fig19", func(c Config) error { _, err := Fig19(c); return err }},
			{"ablation-dram", func(c Config) error { _, err := AblationDRAM(c); return err }},
			{"fig15", func(c Config) error { _, err := Fig15(c); return err }},
			{"load", func(c Config) error { _, err := RunLoad(c, lc); return err }},
		} {
			cfg := quickFor(workers)
			root := telemetry.NewSink()
			root.MaxEvents = -1
			cfg.Telemetry = root
			// Reading the root from OnRunDone, as assasin-serve does, must
			// not race with other runs being absorbed.
			cfg.OnRunDone = func(analyze.Run) { root.Metrics() }
			if err := exp.run(cfg); err != nil {
				t.Fatalf("%s (workers=%d): %v", exp.name, workers, err)
			}
			var buf bytes.Buffer
			if err := cfg.Telemetry.WriteMetricsJSON(&buf); err != nil {
				t.Fatal(err)
			}
			out[exp.name] = buf.String()
			if exp.name == "load" {
				// Every drive's requests, plus its one offload, reach the root.
				want := int64(lc.Drives * (lc.Requests + 1))
				if got := cfg.Telemetry.Metrics().Histograms["req/latency_ps"].Count; got != want {
					t.Errorf("load (workers=%d): root req/latency_ps holds %d samples, want %d", workers, got, want)
				}
			}
		}
		return out
	}
	seq, par := capture(1), capture(4)
	for name, s := range seq {
		if par[name] != s {
			t.Errorf("%s: merged metrics differ between workers=1 and workers=4:\n--- seq\n%s\n--- par\n%s",
				name, s, par[name])
		}
	}
}
