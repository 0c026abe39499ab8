package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBench compiles the command once per test binary.
func buildBench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "assasin-bench")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCLISequentialOverrideWarning checks the stderr warning when telemetry
// flags force sequential simulation: it must name both the forcing flag and
// the -parallel value it overrides. table5 is a static artifact, so the run
// is instant.
func TestCLISequentialOverrideWarning(t *testing.T) {
	bin := buildBench(t)
	trace := filepath.Join(t.TempDir(), "t.json")

	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-exp", "table5", "-quick", "-parallel", "4", "-trace", trace)
	cmd.Stdout = new(bytes.Buffer)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	warn := stderr.String()
	for _, want := range []string{"-trace", "-parallel 4", "-parallel 1"} {
		if !strings.Contains(warn, want) {
			t.Errorf("stderr warning %q does not mention %q", warn, want)
		}
	}
	if _, err := os.Stat(trace); err != nil {
		t.Errorf("trace file not written: %v", err)
	}

	// No telemetry flags, explicit -parallel: no warning.
	stderr.Reset()
	cmd = exec.Command(bin, "-exp", "table5", "-quick", "-parallel", "4")
	cmd.Stdout = new(bytes.Buffer)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	if s := stderr.String(); strings.Contains(s, "forces sequential") {
		t.Errorf("unexpected warning without telemetry flags: %q", s)
	}
}

// TestCLIMetricsIsParallelSafe checks the per-run-sink path: -metrics no
// longer forces sequential simulation and still writes the snapshot.
func TestCLIMetricsIsParallelSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run skipped in -short")
	}
	bin := buildBench(t)
	metrics := filepath.Join(t.TempDir(), "m.json")

	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-exp", "fig5", "-quick", "-mb", "0.125", "-parallel", "4", "-metrics", metrics)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	if s := stderr.String(); strings.Contains(s, "forces sequential") {
		t.Errorf("-metrics should not force sequential anymore: %q", s)
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("metrics file not written: %v", err)
	}
}

// TestCLITimelineAndDiff checks -timeline writes per-run TIMELINE files
// under 4-way parallelism and -diff prints the per-kernel differential.
func TestCLITimelineAndDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run skipped in -short")
	}
	bin := buildBench(t)
	dir := t.TempDir()

	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-exp", "table2", "-quick", "-mb", "0.125", "-parallel", "4",
		"-timeline", dir, "-diff")
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	if s := stderr.String(); strings.Contains(s, "forces sequential") {
		t.Errorf("-timeline/-diff should not force sequential: %q", s)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "TIMELINE_table2_*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no TIMELINE files written (err %v)", err)
	}
	b, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"times_ps"`) {
		t.Errorf("%s is not a timeline:\n%s", matches[0], b)
	}
	out := stdout.String()
	for _, want := range []string{"Differential —", "what changed:", "core time by class"} {
		if !strings.Contains(out, want) {
			t.Errorf("-diff output missing %q", want)
		}
	}
}

// TestCLIJSONLeavesBaselines checks that -json writes only into its own
// directory: run from a tree holding a committed bench/BENCH_<exp>.json
// baseline, a -json run elsewhere leaves that file byte-identical, so a
// compare script reads a baseline it did not just write.
func TestCLIJSONLeavesBaselines(t *testing.T) {
	bin := buildBench(t)
	work := t.TempDir()
	if err := os.MkdirAll(filepath.Join(work, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(work, "bench", "BENCH_table5.json")
	committed := []byte("{\"experiment\": \"table5\", \"wall_seconds\": 1.5}\n")
	if err := os.WriteFile(baseline, committed, 0o644); err != nil {
		t.Fatal(err)
	}

	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-exp", "table5", "-quick", "-json", "out")
	cmd.Dir = work
	cmd.Stdout = new(bytes.Buffer)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	if _, err := os.Stat(filepath.Join(work, "out", "BENCH_table5.json")); err != nil {
		t.Fatalf("-json output missing: %v", err)
	}
	got, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, committed) {
		t.Errorf("-json out rewrote bench/BENCH_table5.json:\n%s", got)
	}
}

// TestCLIReportFlag checks that -report prints the cross-run attribution
// table after a real (tiny) experiment.
func TestCLIReportFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run skipped in -short")
	}
	bin := buildBench(t)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-exp", "fig5", "-quick", "-mb", "0.125", "-report")
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"largest-stall", "cache-dram", "filter/Baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("-report output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIRejectsBadNumbers checks that numeric input the experiments cannot
// use exits non-zero with an error message instead of a panic or a silent
// fallback.
func TestCLIRejectsBadNumbers(t *testing.T) {
	bin := buildBench(t)
	for _, args := range [][]string{
		{"-exp", "fig13", "-quick", "-mb", "1e300"},
		{"-exp", "fig13", "-quick", "-mb", "NaN"},
		{"-exp", "table2", "-quick", "-diff", "-timeline-interval-us", "NaN"},
	} {
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Errorf("%v: exit %v, want a non-zero exit\n%s", args, err, stdout.String())
			continue
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "assasin-bench: ") || strings.Contains(msg, "panic:") {
			t.Errorf("%v: stderr %q, want one assasin-bench error and no panic", args, msg)
		}
	}
}
