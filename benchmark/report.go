package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// WriteReport prints every metric by name with its unit: each end-to-end
// and reported metric's value, quartiles and sample count, then the traced
// run's per-layer metrics.
func WriteReport(w io.Writer, r *Results) {
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "== %s  seed %d  %d timed repeats  %d of %d ops failed\n",
			wr.Name, r.Seed, wr.Repeats, wr.Failed, wr.Attempted)
		for _, m := range resultMetrics() {
			s := wr.Metrics[m.Name]
			fmt.Fprintf(w, "  %-18s %14.6g %-6s q1 %-12.6g q3 %-12.6g n=%d\n", m.Name, s.Value, m.Unit, s.Q1, s.Q3, s.N)
		}
		if wr.Layers != nil {
			for _, m := range PerLayer() {
				fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.Name, wr.Layers[m.Name], m.Unit)
			}
		}
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
	}
}

// ResultLine is the one-line JSON summary of a one-workload run: whether
// every op was correct, the op counts, and either the end-to-end values or,
// for a traced run, the per-layer metrics.
func ResultLine(wr *WorkloadResult, trace bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if trace {
		for _, m := range PerLayer() {
			metrics[m.Name] = value{wr.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range EndToEnd {
			metrics[m.Name] = value{wr.Metrics[m.Name].Value, m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
}

// WriteResults writes a result file.
func WriteResults(path string, r *Results) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadResults reads a result file.
func ReadResults(path string) (*Results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
