package diff_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/diff"
	"assasin/internal/telemetry/kprof"
	"assasin/internal/telemetry/timeline"
)

var update = flag.Bool("update", false, "rewrite the golden differentials under testdata/")

// statRun runs the tiny Stat workload on arch with a sink, a timeline
// sampler and a guest profiler attached, and returns the run's record the
// way experiments.Observer.Finish completes it.
func statRun(t *testing.T, arch ssd.Arch) analyze.Run {
	t.Helper()
	tel := telemetry.NewSink()
	tel.MaxEvents = -1
	sampler := timeline.New(tel, timeline.Config{IntervalPs: 1_000_000})
	kp := new(cpu.Profiler)
	s := ssd.New(ssd.Options{Arch: arch, Cores: 2, Telemetry: tel, Timeline: sampler, KProf: kp})
	data := statWords(16<<10, 7)
	lpas, err := s.InstallBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunKernel(ssd.KernelRun{
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
	run := analyze.Run{
		Label: "Stat/" + arch.String(), Kernel: "Stat", Arch: arch.String(), Cores: 2,
		DurationPs: int64(res.Duration), InputBytes: res.InputBytes,
	}
	for _, st := range res.CoreStats {
		for i, ps := range st.ClassTimes() {
			run.ClassPs[i] += ps
		}
	}
	snap := tel.Metrics()
	run.Metrics = &snap
	run.Timeline = sampler.Finish(run.Label, run.DurationPs)
	run.Profile = kprof.Snapshot(kp)
	run.Profile.Label = run.Label
	return run
}

// shapes are the file shapes assasin-diff reads.
var shapes = []string{"metrics", "timeline", "report", "profile", "envelope"}

// writeShapes writes run in every shape, as dir/<shape>/<arch>.json.
func writeShapes(t *testing.T, dir string, run analyze.Run) {
	t.Helper()
	payloads := map[string]any{
		"metrics":  run.Metrics,
		"timeline": run.Timeline,
		"report":   analyze.Attribute(run),
		"profile":  run.Profile,
		"envelope": map[string]any{"experiment": "stat-" + run.Arch, "telemetry": run.Metrics},
	}
	for _, shape := range shapes {
		b, err := json.MarshalIndent(payloads[shape], "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, shape), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shape, run.Arch+".json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkGolden compares rep's JSON against testdata/<name>.json.
func checkGolden(t *testing.T, name string, rep *diff.Report) {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name+".json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s: differential changed (run with -update if intended)\n got: %s", name, buf.Bytes())
	}
}

// TestCompareGoldenShapes pins the Baseline-vs-AssasinSb Stat differential
// for the in-process pair and for every same-shape pair of files: metrics
// snapshot, timeline, single-run report, guest profile and BENCH envelope.
func TestCompareGoldenShapes(t *testing.T) {
	a, b := statRun(t, ssd.Baseline), statRun(t, ssd.AssasinSb)
	checkGolden(t, "compare_inprocess", diff.Compare(a, b))

	dir := t.TempDir()
	writeShapes(t, dir, a)
	writeShapes(t, dir, b)
	for _, shape := range shapes {
		sa, err := diff.LoadFile(filepath.Join(dir, shape, a.Arch+".json"))
		if err != nil {
			t.Fatal(err)
		}
		sb, err := diff.LoadFile(filepath.Join(dir, shape, b.Arch+".json"))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "compare_"+shape, diff.Compare(sa, sb))
	}
}
