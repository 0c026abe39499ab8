package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"assasin/internal/telemetry"
)

// runDiff runs the command in process and returns its exit status, stdout
// and stderr.
func runDiff(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// topClass decodes the -json report's pinned top class.
func topClass(t *testing.T, out string) string {
	t.Helper()
	var rep struct {
		TopClass string `json:"top_class"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out)
	}
	return rep.TopClass
}

// writeSnapshot serializes a metrics snapshot the way -metrics does.
func writeSnapshot(t *testing.T, path string, snap telemetry.MetricsSnapshot) {
	t.Helper()
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCLIDiff(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "baseline.json"), filepath.Join(dir, "assasin-sb.json")
	writeSnapshot(t, a, telemetry.MetricsSnapshot{
		Counters: map[string]int64{"dram/reads": 900, "fw/pages_fed": 32},
		Gauges: map[string]telemetry.GaugeSnapshot{
			"class/cache-dram-wait_ps": {Value: 500},
			"class/core-busy_ps":       {Value: 400},
		},
	})
	writeSnapshot(t, b, telemetry.MetricsSnapshot{
		Counters: map[string]int64{"dram/reads": 0, "fw/pages_fed": 32},
		Gauges: map[string]telemetry.GaugeSnapshot{
			"class/cache-dram-wait_ps": {Value: 0},
			"class/core-busy_ps":       {Value: 380},
		},
	})

	code, out, stderr := runDiff(a, b)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	for _, want := range []string{"Differential — baseline vs assasin-sb", "cache-dram-wait", "dram/reads"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// -json emits the machine-readable report with the pinned top class.
	code, out, stderr = runDiff("-json", a, b)
	if code != 0 {
		t.Fatalf("-json: exit %d\n%s", code, stderr)
	}
	if got := topClass(t, out); got != "cache-dram-wait" {
		t.Errorf("top_class = %q, want cache-dram-wait", got)
	}
}

// TestCLIDiffArchivedStat compares the committed Stat metrics snapshots of
// Baseline and AssasinSb: the headline must be the cache/DRAM-wait
// collapse the stream buffers buy, the paper's memory wall recovered from
// the files alone.
func TestCLIDiffArchivedStat(t *testing.T) {
	a := filepath.Join("..", "..", "bench", "METRICS_stat_baseline.json")
	b := filepath.Join("..", "..", "bench", "METRICS_stat_assasinsb.json")
	code, out, stderr := runDiff(a, b)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if !strings.HasPrefix(out, "Differential — ") {
		t.Errorf("no Differential header:\n%s", out)
	}
	if !strings.Contains(out, "what changed: cache-dram-wait") {
		t.Errorf("headline is not the cache-dram-wait collapse:\n%s", out)
	}
	code, out, stderr = runDiff("-json", a, b)
	if code != 0 {
		t.Fatalf("-json: exit %d\n%s", code, stderr)
	}
	if got := topClass(t, out); got != "cache-dram-wait" {
		t.Errorf("top_class = %q, want cache-dram-wait", got)
	}
}

// TestCLIDiffErrors checks the exit statuses: 0 for -h and -version, 2 for
// a usage error and 1 for a file that cannot be loaded. The last row also
// runs the built binary, so main's exit path stays covered.
func TestCLIDiffErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, row := range []struct {
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{[]string{"-h"}, 0, "", "usage: assasin-diff"},
		{[]string{"-version"}, 0, "assasin-diff", ""},
		{[]string{"only-one.json"}, 2, "", "usage: assasin-diff"},
		{[]string{"-bogus", "a.json", "b.json"}, 2, "", "flag provided but not defined: -bogus"},
		{[]string{missing, missing}, 1, "", missing},
	} {
		code, stdout, stderr := runDiff(row.args...)
		if code != row.code || !strings.Contains(stdout, row.stdout) || !strings.Contains(stderr, row.stderr) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d, stdout with %q, stderr with %q",
				row.args, code, stdout, stderr, row.code, row.stdout, row.stderr)
		}
	}

	bin := filepath.Join(t.TempDir(), "assasin-diff")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, missing, missing)
	cmd.Stderr = &stderr
	if err, ok := cmd.Run().(*exec.ExitError); !ok || err.ExitCode() != 1 {
		t.Errorf("binary, missing file: got %v, want exit 1", err)
	}
	if !strings.Contains(stderr.String(), "missing.json") {
		t.Errorf("binary error does not name the file: %q", stderr.String())
	}
}
