package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runBench runs the command in process and returns its exit status,
// stdout and stderr.
func runBench(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// buildBench compiles the command, for the one test that runs the binary.
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
	trace := filepath.Join(t.TempDir(), "t.json")
	code, _, warn := runBench("-exp", "table5", "-quick", "-parallel", "4", "-trace", trace)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, warn)
	}
	for _, want := range []string{"-trace", "-parallel 4", "-parallel 1"} {
		if !strings.Contains(warn, want) {
			t.Errorf("stderr warning %q does not mention %q", warn, want)
		}
	}
	if _, err := os.Stat(trace); err != nil {
		t.Errorf("trace file not written: %v", err)
	}

	// No telemetry flags, explicit -parallel: no warning.
	code, _, stderr := runBench("-exp", "table5", "-quick", "-parallel", "4")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if strings.Contains(stderr, "forces sequential") {
		t.Errorf("unexpected warning without telemetry flags: %q", stderr)
	}
}

// TestCLIMetricsIsParallelSafe checks the per-run-sink path: -metrics no
// longer forces sequential simulation and still writes the snapshot.
func TestCLIMetricsIsParallelSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run skipped in -short")
	}
	metrics := filepath.Join(t.TempDir(), "m.json")
	code, _, stderr := runBench("-exp", "fig5", "-quick", "-mb", "0.125", "-parallel", "4", "-metrics", metrics)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if strings.Contains(stderr, "forces sequential") {
		t.Errorf("-metrics should not force sequential anymore: %q", stderr)
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
	dir := t.TempDir()
	code, out, stderr := runBench("-exp", "table2", "-quick", "-mb", "0.125", "-parallel", "4",
		"-timeline", dir, "-diff")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if strings.Contains(stderr, "forces sequential") {
		t.Errorf("-timeline/-diff should not force sequential: %q", stderr)
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
	for _, want := range []string{"Differential —", "what changed:", "core time by class"} {
		if !strings.Contains(out, want) {
			t.Errorf("-diff output missing %q", want)
		}
	}
}

// TestCLIDiffCounters checks that -diff alone ranks each pair's counters:
// the runs' private sinks, which hold them, open without -metrics.
func TestCLIDiffCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run skipped in -short")
	}
	code, out, stderr := runBench("-exp", "fig13", "-quick", "-diff")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if !strings.Contains(out, "counters (top") {
		t.Errorf("-diff output has no counter table:\n%s", out)
	}
}

// TestCLIJSONLeavesBaselines checks that -json writes only into its own
// directory: run from a tree holding a committed bench/BENCH_<exp>.json
// baseline, a -json run elsewhere leaves that file byte-identical, so a
// compare script reads a baseline it did not just write. It is the one test
// that runs the built binary, so main's exit path stays covered.
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
	code, out, stderr := runBench("-exp", "fig5", "-quick", "-mb", "0.125", "-report")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	for _, want := range []string{"largest-stall", "cache-dram", "filter/Baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("-report output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIRejectsBadNumbers checks that input the experiments cannot use
// exits 2 with an error message instead of a panic or a silent fallback.
func TestCLIRejectsBadNumbers(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig13", "-quick", "-mb", "1e300"},
		{"-exp", "fig13", "-quick", "-mb", "1e12"},
		{"-exp", "fig13", "-quick", "-mb", "NaN"},
		{"-exp", "table2", "-quick", "-diff", "-timeline-interval-us", "NaN"},
		{"-exp", "table5", "-quick", "-requests", "-3"},
		{"-exp", "table5", "-quick", "-kprof", "-1"},
		{"-exp", "table5", "-quick", "-log-level", "loud"},
	} {
		code, stdout, msg := runBench(args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, stdout)
			continue
		}
		if !strings.HasPrefix(msg, "assasin-bench: ") || strings.Contains(msg, "panic:") {
			t.Errorf("%v: stderr %q, want one assasin-bench error and no panic", args, msg)
		}
	}
}
