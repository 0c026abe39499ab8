package benchmark

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the root BENCHMARK.json: how to run the benchmark and
// what it reports.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var d benchmarkJSON
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json in step with
// the program: the same workloads with the same reasons, and the same
// metrics with the same units, directions and bounds.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	d := readBenchmarkJSON(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.Name || d.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, d.Workloads[i].Name, d.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(d.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end differs from EndToEnd:\n%+v\n%+v", d.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(d.PerLayer, PerLayer()) {
		t.Errorf("per_layer differs from PerLayer():\n%+v\n%+v", d.PerLayer, PerLayer())
	}
}

// TestBenchmarkJSONLimits checks the declaration's format limits: names,
// units and reasons, bounds, the set-up metric, and the run length.
func TestBenchmarkJSONLimits(t *testing.T) {
	d := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var all []string
	for _, w := range d.Workloads {
		all = append(all, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		all = append(all, m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q malformed", m.Name, m.Unit, m.Better)
		}
	}
	seen := make(map[string]bool)
	for _, n := range all {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var setup float64
	for _, m := range d.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	for _, m := range d.EndToEnd {
		if m.Bound <= 0 || m.Bound > setup || setup > 0.25 {
			t.Errorf("%s: bound %g outside (0, setup_s's %g], or that above 0.25", m.Name, m.Bound, setup)
		}
	}
	if len(d.Workloads) < 2 || len(d.Workloads) > 8 || len(d.PerLayer) > 128 || len(d.EndToEnd) > 16 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics out of range", len(d.Workloads), len(d.EndToEnd), len(d.PerLayer))
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", d.RunSeconds)
	}
	if !reflect.DeepEqual(d.Paths, []string{"benchmark"}) || !reflect.DeepEqual(d.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v or paths %v changed", d.Command, d.Paths)
	}
}
