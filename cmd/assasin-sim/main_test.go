package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden stdout under testdata/")

// TestCLIGoldenStdout pins the command's whole stdout for one observed run:
// the throughput and cycle lines, the attribution report, the guest hot
// blocks and the slowest-request table. The simulation is deterministic, so
// any byte that moves is a behavior change.
func TestCLIGoldenStdout(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "assasin-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
