package benchmark

import (
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rerun every workload at full size for the golden seeds and rewrite golden/seed*.json")

// TestGoldenDigests checks that the committed golden files cover every
// workload. With -update it regenerates them from full-size runs (about a
// minute).
func TestGoldenDigests(t *testing.T) {
	for _, seed := range goldenSeeds {
		if *update {
			g := make(map[string]map[string]string)
			for _, w := range workloads {
				p := runOps(w.prepare(seed, 1), newEnv(), nil)
				if p.Failed != 0 {
					t.Fatalf("seed %d %s: %d ops failed: %v", seed, w.Name, p.Failed, p.Errors)
				}
				g[w.Name] = p.Digests
			}
			b, err := json.MarshalIndent(g, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath(seed), append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for _, w := range workloads {
			if len(goldenDigests(seed, w.Name, 1)) == 0 {
				t.Errorf("%s has no digests for %s; run go test -run TestGoldenDigests -update", goldenPath(seed), w.Name)
			}
		}
	}
}

// TestPerturbedDigestFails checks that an op whose simulated result differs
// from its golden digest counts as failed and raises fail_frac.
func TestPerturbedDigestFails(t *testing.T) {
	w, err := lookup("short-offloads")
	if err != nil {
		t.Fatal(err)
	}
	ops := w.prepare(1, smokeScale)
	clean := runOps(ops, newEnv(), nil)
	if clean.Failed != 0 {
		t.Fatalf("%d ops failed: %v", clean.Failed, clean.Errors)
	}
	golden := make(map[string]string, len(clean.Digests))
	var victim string
	for name, d := range clean.Digests {
		golden[name] = d
		victim = name
	}
	if again := runOps(ops, newEnv(), golden); again.Failed != 0 {
		t.Fatalf("a rerun failed against its own digests: %v", again.Errors)
	}
	golden[victim] = "0000000000000000"
	p := runOps(ops, newEnv(), golden)
	if p.Failed != 1 || len(p.Errors) != 1 || !strings.Contains(p.Errors[0], victim) {
		t.Fatalf("perturbed digest of %s: %d failed, errors %v", victim, p.Failed, p.Errors)
	}
	wr := &WorkloadResult{}
	wr.absorb(&childResult{Passes: []passResult{p}})
	if ff := wr.failFrac(); ff != 1/float64(len(ops)) {
		t.Fatalf("fail_frac %g, want %g", ff, 1/float64(len(ops)))
	}
}
