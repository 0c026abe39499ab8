package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"assasin/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden stdout under testdata/")

// TestCLIGoldenStdout pins the command's whole stdout for one observed run:
// the throughput and cycle lines, the attribution report, the guest hot
// blocks and the slowest-request table. The simulation is deterministic, so
// any byte that moves is a behavior change.
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

// TestCLIWorkloads checks -kernel against the workload table: the help text
// lists exactly the table's rows, every row runs at a tiny input and exits
// 0, and an unknown name exits non-zero.
func TestCLIWorkloads(t *testing.T) {
	bin := buildSim(t)
	help, _ := exec.Command(bin, "-h").CombinedOutput()
	_, usage, _ := strings.Cut(string(help), "-kernel string\n")
	usage, _, _ = strings.Cut(usage, "\n")
	_, list, _ := strings.Cut(usage, "workload: ")
	list, _, _ = strings.Cut(list, " (default")
	if got := strings.Split(list, ", "); !reflect.DeepEqual(got, experiments.WorkloadNames()) {
		t.Errorf("-kernel help lists %q, want %q", got, experiments.WorkloadNames())
	}
	for _, name := range experiments.WorkloadNames() {
		if out, err := exec.Command(bin, "-kernel", name, "-mb", "0.01").CombinedOutput(); err != nil {
			t.Errorf("-kernel %s: %v\n%s", name, err, out)
		}
	}
	if out, err := exec.Command(bin, "-kernel", "nosuch").CombinedOutput(); err == nil {
		t.Errorf("-kernel nosuch exited 0:\n%s", out)
	}
}

// TestCLICoresDefault checks that the header describes the SSD the run
// used: -cores 0 runs on ssd.New's default of eight engines.
func TestCLICoresDefault(t *testing.T) {
	bin := buildSim(t)
	out, err := exec.Command(bin, "-kernel", "stat", "-mb", "0.05", "-cores", "0").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	header, _, _ := strings.Cut(string(out), "\n")
	if !strings.Contains(header, ": 8 cores,") {
		t.Errorf("-cores 0 header = %q, want 8 cores", header)
	}
}

// TestCLIRejectsBadNumbers checks that numeric input the run cannot use
// exits non-zero with an error message instead of a panic or a NaN report.
func TestCLIRejectsBadNumbers(t *testing.T) {
	bin := buildSim(t)
	for _, args := range [][]string{
		{"-mb", "NaN"},
		{"-mb", "1e300"},
		{"-mb", "0"},
		{"-mb", "0.00005"}, // 52 bytes: under one 64-byte record
		{"-timeline-interval-us", "NaN"},
	} {
		checkRejected(t, exec.Command(bin, args...), "assasin-sim: ")
	}
}

// checkRejected runs cmd and demands a non-zero exit with an error line on
// stderr that starts with prefix, and no panic.
func checkRejected(t *testing.T, cmd *exec.Cmd, prefix string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Errorf("%v: exit %v, want a non-zero exit\n%s", cmd.Args[1:], err, stdout.String())
		return
	}
	if msg := stderr.String(); !strings.HasPrefix(msg, prefix) || strings.Contains(msg, "panic:") {
		t.Errorf("%v: stderr %q, want one %q error and no panic", cmd.Args[1:], msg, prefix)
	}
}

// buildSim builds the command into a temporary directory.
func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "assasin-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}
