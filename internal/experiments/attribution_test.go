package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden attribution report under testdata/")

// attributionRun executes one Table II workload with OnRunDone wired and
// returns the captured record.
func attributionRun(t *testing.T, arch ssd.Arch, k kernels.Kernel, recordSize int, data []byte, tel *telemetry.Sink) analyze.Run {
	t.Helper()
	var rec analyze.Run
	cfg := Config{Telemetry: tel, OnRunDone: func(r analyze.Run) { rec = r }}
	_, err := runStandalone(cfg, runOpts{
		arch:       arch,
		cores:      2,
		kernel:     k,
		inputs:     [][]byte{data},
		recordSize: recordSize,
		outKind:    firmware.OutDiscard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Label == "" {
		t.Fatal("OnRunDone was not invoked")
	}
	return rec
}

// TestMemoryWallAttribution is the paper's in-SSD memory-wall narrative as
// an assertion: on the Table II Stat workload the Baseline CSSD's largest
// stall class is the cache/DRAM wait, while AssasinSb's stream buffers keep
// the cores fed so core-busy becomes the largest class outright.
func TestMemoryWallAttribution(t *testing.T) {
	data := randData(256<<10, 7)

	base := analyze.Attribute(attributionRun(t, ssd.Baseline, kernels.Stat{}, 4, data, nil))
	if base.LargestStall != cpu.ClassCacheDRAMWait {
		t.Errorf("Baseline largest stall = %s, want %s\n%s",
			base.LargestStall, cpu.ClassCacheDRAMWait, analyze.FormatReport(base))
	}
	if f := base.ClassFrac(cpu.ClassCacheDRAMWait); f < 0.25 {
		t.Errorf("Baseline cache/DRAM wait fraction = %.3f, want >= 0.25", f)
	}

	sb := analyze.Attribute(attributionRun(t, ssd.AssasinSb, kernels.Stat{}, 4, data, nil))
	if sb.LargestClass != cpu.ClassCoreBusy {
		t.Errorf("AssasinSb largest class = %s, want %s\n%s",
			sb.LargestClass, cpu.ClassCoreBusy, analyze.FormatReport(sb))
	}
	if got, want := sb.ClassFrac(cpu.ClassCacheDRAMWait), 0.01; got > want {
		t.Errorf("AssasinSb cache/DRAM wait fraction = %.3f, want <= %.2f", got, want)
	}
	if sb.ThroughputBps <= base.ThroughputBps {
		t.Errorf("AssasinSb throughput %.0f <= Baseline %.0f", sb.ThroughputBps, base.ThroughputBps)
	}
}

// TestStreamRefillNearZero checks the flip side on a compute-bound Table II
// workload (AES): ASSASIN's stream buffers eliminate refill waits almost
// entirely, while the Baseline still pays its largest stall to cache/DRAM.
func TestStreamRefillNearZero(t *testing.T) {
	data := randData(64<<10, 9)

	sb := analyze.Attribute(attributionRun(t, ssd.AssasinSb, kernels.AES{}, 16, data, nil))
	if f := sb.ClassFrac(cpu.ClassStreamRefillWait); f > 0.05 {
		t.Errorf("AssasinSb stream-refill fraction = %.3f, want <= 0.05", f)
	}
	if sb.LargestClass != cpu.ClassCoreBusy {
		t.Errorf("AssasinSb largest class = %s, want %s", sb.LargestClass, cpu.ClassCoreBusy)
	}

	base := analyze.Attribute(attributionRun(t, ssd.Baseline, kernels.AES{}, 16, data, nil))
	if base.LargestStall != cpu.ClassCacheDRAMWait {
		t.Errorf("Baseline largest stall = %s, want %s\n%s",
			base.LargestStall, cpu.ClassCacheDRAMWait, analyze.FormatReport(base))
	}
}

// statPairReports runs Stat on Baseline and then on AssasinSb under the
// root sink tel and returns the runs' records and their sorted attribution
// JSON.
func statPairReports(t *testing.T, tel *telemetry.Sink) ([]analyze.Run, []byte) {
	t.Helper()
	data := randData(256<<10, 7)
	var recs []analyze.Run
	var reports []*analyze.RunReport
	for _, arch := range []ssd.Arch{ssd.Baseline, ssd.AssasinSb} {
		rec := attributionRun(t, arch, kernels.Stat{}, 4, data, tel)
		recs = append(recs, rec)
		reports = append(reports, analyze.Attribute(rec))
	}
	analyze.SortReports(reports)
	var buf bytes.Buffer
	if err := analyze.WriteJSON(&buf, reports); err != nil {
		t.Fatal(err)
	}
	return recs, buf.Bytes()
}

// TestRunMetricsIndependentOfRoot checks that a run's metrics cover that
// run alone whatever the root sink records: the Stat pair observed under a
// trace-recording root and under a metrics-only root yields identical
// per-run snapshots and identical attribution JSON, so the second run's
// histograms hold its own samples and not the first run's too.
func TestRunMetricsIndependentOfRoot(t *testing.T) {
	traced := telemetry.NewSink()
	metricsOnly := telemetry.NewSink()
	metricsOnly.MaxEvents = -1
	trRecs, trJSON := statPairReports(t, traced)
	moRecs, moJSON := statPairReports(t, metricsOnly)
	if traced.EventCount() == 0 {
		t.Fatal("trace-recording root absorbed no events")
	}
	for i := range trRecs {
		a, b := trRecs[i].Metrics, moRecs[i].Metrics
		if a == nil || b == nil {
			t.Fatalf("%s: missing metrics snapshot", trRecs[i].Label)
		}
		// The event tallies describe the sinks, not the run's metrics.
		ca, cb := *a, *b
		ca.TraceEvents, cb.TraceEvents = 0, 0
		if !reflect.DeepEqual(ca, cb) {
			t.Errorf("%s: run metrics differ between a trace-recording and a metrics-only root", trRecs[i].Label)
		}
	}
	sb := moRecs[1].Metrics.Histograms["sched/quantum_used_ps"]
	if got := trRecs[1].Metrics.Histograms["sched/quantum_used_ps"].Count; got != sb.Count || got == 0 {
		t.Errorf("AssasinSb sched/quantum_used_ps count = %d under a trace root, %d under a metrics-only root", got, sb.Count)
	}
	if !bytes.Equal(trJSON, moJSON) {
		t.Errorf("attribution JSON differs between a trace-recording and a metrics-only root:\n--- traced\n%s\n--- metrics-only\n%s", trJSON, moJSON)
	}
}

// TestGoldenAttributionReport pins the full attribution JSON for the Stat
// memory-wall pair, telemetry attached (so component utilization, counters
// and histograms are covered too). The simulation is deterministic, so the
// report is byte-stable; regenerate with
// go test ./internal/experiments -run GoldenAttribution -update
// after an intentional timing or instrumentation change.
func TestGoldenAttributionReport(t *testing.T) {
	_, got := statPairReports(t, telemetry.NewSink())
	buf := bytes.NewBuffer(got)
	golden := filepath.Join("testdata", "golden_attribution.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("attribution report deviates from %s (%d vs %d bytes); run with -update if the change is intentional",
			golden, buf.Len(), len(want))
	}
}

// TestRunRecordsItsSSD checks that a run's record describes the SSD the run
// used, not the caller's request: -cores 0 selects ssd.New's default of
// eight engines, and the record must say eight.
func TestRunRecordsItsSSD(t *testing.T) {
	var delivered analyze.Run
	cfg := Config{OnRunDone: func(r analyze.Run) { delivered = r }}
	done, err := RunWorkload(cfg, "stat", ssd.AssasinSb, false, 0, 16<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(done.SSD.Cores); n != 8 {
		t.Fatalf("cores 0 built %d engines, want ssd.New's default of 8", n)
	}
	for _, run := range []analyze.Run{done.Run, delivered} {
		if run.Cores != 8 || run.Arch != "AssasinSb" {
			t.Errorf("%s: record says %d cores on %q, want 8 on AssasinSb", run.Label, run.Cores, run.Arch)
		}
	}
}
