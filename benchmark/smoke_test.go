package benchmark

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process, so
// tests exercise the same fork-per-repeat path as the command.
func TestMain(m *testing.M) {
	if IsChild() {
		os.Exit(ChildMain())
	}
	os.Exit(m.Run())
}

// smokeScale shrinks every workload to a few milliseconds per pass.
const smokeScale = 1.0 / 64

// TestSmokeAllWorkloads runs every workload at a tiny size, timed repeats
// and both traced passes, each in its own child process, and checks that no
// op failed and every declared metric was produced.
func TestSmokeAllWorkloads(t *testing.T) {
	res, err := Run(Options{
		Workloads: Workloads(), Seed: 1, Seconds: 0.01, Trace: true,
		Scale: smokeScale, Dir: t.TempDir(), Stderr: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workload results, want %d", len(res.Workloads), len(workloads))
	}
	decl := readBenchmarkJSON(t)
	for _, wr := range res.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", wr.Name, wr.Failed, wr.Attempted, wr.Errors)
		}
		if ff := wr.Metrics[failFrac.Name].Value; ff != 0 {
			t.Errorf("%s: fail_frac %g", wr.Name, ff)
		}
		if wr.Repeats < minRepeats {
			t.Errorf("%s: %d timed repeats, want at least %d", wr.Name, wr.Repeats, minRepeats)
		}
		if hf := wr.Metrics["host_factor"]; hf.N != wr.Repeats || slices.Min(hf.Samples) <= 0 {
			t.Errorf("%s: host factors %v, want one above 0 per repeat", wr.Name, hf.Samples)
		}
		var selfSum float64
		for _, l := range Layers {
			selfSum += wr.Layers[l+".self_pct"]
		}
		if math.Abs(selfSum-100) > 1e-6 {
			t.Errorf("%s: layer self shares sum to %g%%, want 100%%", wr.Name, selfSum)
		}
		for trace, want := range map[bool][]Metric{false: decl.EndToEnd, true: decl.PerLayer} {
			line, err := ResultLine(wr, trace)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct bool                       `json:"correct"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct {
				t.Errorf("%s: result line not correct", wr.Name)
			}
			if g, w := keys(got.Metrics), names(want); !equal(g, w) {
				t.Errorf("%s trace=%v: result line emits %v, BENCHMARK.json declares %v", wr.Name, trace, g, w)
			}
		}
	}
}

func keys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func names(ms []Metric) []string {
	var ns []string
	for _, m := range ms {
		ns = append(ns, m.Name)
	}
	sort.Strings(ns)
	return ns
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
