package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"assasin/internal/experiments"
	"assasin/internal/telemetry/diff"
)

var update = flag.Bool("update", false, "rewrite the golden stdout under testdata/")

// TestCLIGoldenStdout pins the command's whole stdout for one observed run:
// the throughput and cycle lines, the attribution report, the guest hot
// blocks and the slowest-request table. The simulation is deterministic, so
// any byte that moves is a behavior change. It is the one test that runs
// the built binary, so main's exit path stays covered.
func TestCLIGoldenStdout(t *testing.T) {
	bin := buildSim(t)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-arch", "AssasinSb", "-kernel", "stat", "-mb", "0.25",
		"-report", "-requests", "4", "-kprof", "5")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	golden := filepath.Join("testdata", "golden_stat_report.txt")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout deviates from %s; run with -update if the change is intentional\n--- got\n%s", golden, stdout.String())
	}
}

// TestCLITimelineAndProfileDiff runs Stat on Baseline and on AssasinSb
// with -timeline and -kprof-dir, and checks what the two runs' files say:
// the timelines diff to the cache/DRAM-wait collapse with a phase table,
// the guest profiles diff to a per-block table, each run prints its hot
// blocks and exports a folded and a pprof profile, and the real `go tool
// pprof` reads that export with a symbolized guest pc as its top frame.
func TestCLITimelineAndProfileDiff(t *testing.T) {
	dir := t.TempDir()
	for _, arch := range []string{"Baseline", "AssasinSb"} {
		code, out, stderr := runSim("-arch", arch, "-kernel", "stat", "-mb", "0.25",
			"-timeline", filepath.Join(dir, arch+".timeline.json"), "-kprof-dir", filepath.Join(dir, arch))
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", arch, code, stderr)
		}
		if !strings.Contains(out, "\nGUEST HOT BLOCKS") {
			t.Errorf("%s: no GUEST HOT BLOCKS table:\n%s", arch, out)
		}
		for _, f := range []string{"profile.json", "profile.folded", "profile.pb.gz"} {
			if st, err := os.Stat(filepath.Join(dir, arch, f)); err != nil || st.Size() == 0 {
				t.Errorf("%s: %s missing or empty: %v", arch, f, err)
			}
		}
		folded, _ := os.ReadFile(filepath.Join(dir, arch, "profile.folded"))
		if !regexp.MustCompile(`(?m)^stat;stat: `).Match(folded) {
			t.Errorf("%s: folded profile has no stat frames:\n%s", arch, folded)
		}
	}

	compare := func(pathA, pathB string) *diff.Report {
		t.Helper()
		a, err := diff.LoadFile(pathA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := diff.LoadFile(pathB)
		if err != nil {
			t.Fatal(err)
		}
		return diff.Compare(a, b)
	}
	timelines := compare(filepath.Join(dir, "Baseline.timeline.json"), filepath.Join(dir, "AssasinSb.timeline.json"))
	if timelines.TopClass != "cache-dram-wait" || timelines.Phases == nil {
		t.Errorf("timeline diff: top class %q, phase table %v; want cache-dram-wait with a phase table\n%s",
			timelines.TopClass, timelines.Phases != nil, timelines.Format())
	}
	profiles := compare(filepath.Join(dir, "Baseline", "profile.json"), filepath.Join(dir, "AssasinSb", "profile.json"))
	if out := profiles.Format(); !strings.Contains(out, "guest hot blocks") {
		t.Errorf("profile diff has no guest hot blocks table:\n%s", out)
	}

	top, err := exec.Command("go", "tool", "pprof", "-top", filepath.Join(dir, "AssasinSb", "profile.pb.gz")).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof: %v\n%s", err, top)
	}
	_, rows, _ := strings.Cut(string(top), "flat%")
	_, rows, _ = strings.Cut(rows, "\n")
	first, _, _ := strings.Cut(rows, "\n")
	if !regexp.MustCompile(` stat: [0-9]+: \S`).MatchString(first) {
		t.Errorf("pprof top frame %q is not a symbolized guest pc:\n%s", first, top)
	}
}

// TestCLIWorkloads checks -kernel against the workload table: the help text
// lists exactly the table's rows, every row runs at a tiny input and exits
// 0, and an unknown name exits non-zero.
func TestCLIWorkloads(t *testing.T) {
	_, _, help := runSim("-h")
	_, usage, _ := strings.Cut(help, "-kernel string\n")
	usage, _, _ = strings.Cut(usage, "\n")
	_, list, _ := strings.Cut(usage, "workload: ")
	list, _, _ = strings.Cut(list, " (default")
	if got := strings.Split(list, ", "); !reflect.DeepEqual(got, experiments.WorkloadNames()) {
		t.Errorf("-kernel help lists %q, want %q", got, experiments.WorkloadNames())
	}
	for _, name := range experiments.WorkloadNames() {
		if code, _, stderr := runSim("-kernel", name, "-mb", "0.01"); code != 0 {
			t.Errorf("-kernel %s: exit %d\n%s", name, code, stderr)
		}
	}
	if code, stdout, _ := runSim("-kernel", "nosuch"); code == 0 {
		t.Errorf("-kernel nosuch exited 0:\n%s", stdout)
	}
}

// TestCLICoresDefault checks that the header describes the SSD the run
// used: -cores 0 runs on ssd.New's default of eight engines.
func TestCLICoresDefault(t *testing.T) {
	code, out, stderr := runSim("-kernel", "stat", "-mb", "0.05", "-cores", "0")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	header, _, _ := strings.Cut(out, "\n")
	if !strings.Contains(header, ": 8 cores,") {
		t.Errorf("-cores 0 header = %q, want 8 cores", header)
	}
}

// TestCLIRejectsBadNumbers checks that input the run cannot use exits 2
// with an error message instead of a panic or a NaN report.
func TestCLIRejectsBadNumbers(t *testing.T) {
	for _, args := range [][]string{
		{"-mb", "NaN"},
		{"-mb", "1e300"},
		{"-mb", "1e12"},                     // past the flash array
		{"-kernel", "raid6", "-mb", "7168"}, // four streams of the whole array
		{"-mb", "0"},
		{"-mb", "0.00005"}, // 52 bytes: under one 64-byte record
		{"-timeline-interval-us", "NaN"},
		{"-mb", "0.01", "-requests", "-3"},
		{"-mb", "0.01", "-kprof", "-1"},
		{"-mb", "0.01", "-log-level", "loud"},
	} {
		code, stdout, msg := runSim(args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, stdout)
			continue
		}
		if !strings.HasPrefix(msg, "assasin-sim: ") || strings.Contains(msg, "panic:") {
			t.Errorf("%v: stderr %q, want one assasin-sim error and no panic", args, msg)
		}
	}
}

// runSim runs the command in process and returns its exit status, stdout
// and stderr.
func runSim(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// buildSim builds the command into a temporary directory, for the one
// test that runs the binary.
func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "assasin-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}
