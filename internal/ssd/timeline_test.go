package ssd

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/timeline"
)

// runStatTimeline offloads the tiny Table II Stat workload with a sim-time
// sampler attached and returns the finished timeline plus the run result.
func runStatTimeline(t *testing.T, tel *telemetry.Sink, cfg timeline.Config) (*timeline.Timeline, *Result) {
	t.Helper()
	data := makeWords(16<<10, 7)
	if tel != nil {
		tel.StartRun("Stat/AssasinSb")
	}
	sampler := timeline.New(tel, cfg)
	s := New(Options{Arch: AssasinSb, Cores: 2, Telemetry: tel, Timeline: sampler})
	lpas, err := s.InstallBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunKernel(KernelRun{
		Kernel:     kernels.Stat{},
		Inputs:     [][]int{lpas},
		InputBytes: []int64{int64(len(data))},
		RecordSize: 4,
		Cores:      2,
		OutKind:    firmware.OutDiscard,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.PublishStats()
	return sampler.Finish("Stat/AssasinSb", int64(res.Duration)), res
}

// TestTimelineClassSeriesCoverRun checks the SSD-layer probe wiring: the
// five stall-class rate series integrate to exactly the per-core cycle
// decomposition the result reports, and segmentation found phases.
func TestTimelineClassSeriesCoverRun(t *testing.T) {
	tel := telemetry.NewSink()
	tl, res := runStatTimeline(t, tel, timeline.Config{IntervalPs: 1_000_000})

	if n := len(tl.TimesPs); n == 0 || tl.TimesPs[n-1] != int64(res.Duration) {
		t.Fatalf("timeline does not end at run duration: times %v, duration %d", tl.TimesPs, res.Duration)
	}
	var wantBusy int64
	for _, st := range res.CoreStats {
		wantBusy += int64(st.BusyTime)
	}
	se := tl.SeriesByKey(timeline.ClassPrefix + cpu.ClassCoreBusy)
	if se == nil {
		t.Fatalf("no %s series; series: %d", timeline.ClassPrefix+cpu.ClassCoreBusy, len(tl.Series))
	}
	var gotBusy int64
	for _, v := range se.Values {
		gotBusy += v
	}
	if gotBusy != wantBusy {
		t.Errorf("class/core-busy integrates to %d ps, core stats say %d ps", gotBusy, wantBusy)
	}
	if len(tl.Phases) == 0 {
		t.Error("no phases segmented")
	}
	// Sink metrics are sampled alongside the probes.
	if tl.SeriesByKey("fw/pages_fed") == nil {
		t.Error("sink counter fw/pages_fed has no timeline series")
	}
}

// TestTimelineClassGaugesPublished checks PublishStats exposes the class
// totals as gauges (the diff engine's metrics-only fallback).
func TestTimelineClassGaugesPublished(t *testing.T) {
	tel := telemetry.NewSink()
	_, res := runStatTimeline(t, tel, timeline.Config{IntervalPs: 1_000_000})

	snap := tel.Metrics()
	var wantBusy int64
	for _, st := range res.CoreStats {
		wantBusy += int64(st.BusyTime)
	}
	g, ok := snap.Gauges["class/"+cpu.ClassCoreBusy+"_ps"]
	if !ok || g.Value != wantBusy {
		t.Errorf("class/core-busy_ps gauge = %+v, want %d", g, wantBusy)
	}
	for _, class := range cpu.ClassNames {
		if _, ok := snap.Gauges["class/"+class+"_ps"]; !ok {
			t.Errorf("class gauge %s_ps not published", class)
		}
	}
}

// TestTimelineTraceClassesMirrored checks that a sampler over a sink that
// records trace events adds Chrome "ph":"C" counter samples to it, and one
// over a metrics-only sink adds no timeline track.
func TestTimelineTraceClassesMirrored(t *testing.T) {
	quiet := telemetry.NewSink()
	quiet.MaxEvents = -1
	runStatTimeline(t, quiet, timeline.Config{IntervalPs: 1_000_000})
	var qbuf bytes.Buffer
	if err := quiet.WriteChromeTrace(&qbuf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(qbuf.Bytes(), []byte(`"timeline"`)) {
		t.Error("metrics-only sink got a timeline track")
	}

	tel := telemetry.NewSink()
	runStatTimeline(t, tel, timeline.Config{IntervalPs: 1_000_000})

	counters := 0
	for _, e := range tel.Events() {
		if e.Phase == "C" {
			counters++
		}
	}
	if counters == 0 {
		t.Error("class lanes produced no counter events")
	}
	var buf bytes.Buffer
	if err := tel.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"ph":"C"`)) {
		t.Error("Chrome export carries no counter events")
	}
}

// TestTimelineGoldenJSON pins the sampled timeline for the tiny Stat
// workload. The sampler is driven by simulated time, so the file is
// byte-stable; regenerate with go test ./internal/ssd -run Golden -update
// after an intentional timing or instrumentation change.
func TestTimelineGoldenJSON(t *testing.T) {
	tel := telemetry.NewSink()
	tl, _ := runStatTimeline(t, tel, timeline.Config{IntervalPs: 1_000_000})

	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_timeline.json")
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
		t.Errorf("timeline deviates from %s (%d vs %d bytes); run with -update if the change is intentional",
			golden, buf.Len(), len(want))
	}
}
