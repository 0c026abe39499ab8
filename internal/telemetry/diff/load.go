package diff

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/kprof"
	"assasin/internal/telemetry/timeline"
)

// LoadFile reads one comparison side from a JSON file, auto-detecting the
// format by its top-level keys:
//
//   - a flat metrics snapshot (assasin-sim/-bench -metrics): "counters" /
//     "gauges" / "histograms"
//   - a timeline (-timeline): "times_ps"
//   - a BENCH_<exp>.json envelope (-json): "experiment" — uses the
//     embedded "telemetry" snapshot, which must be present
//   - a single attribution report, or a BENCH_report.json array holding
//     exactly one: "classes" + "label"
//   - a guest kernel profile (-kprof-dir profile.json or the serve
//     /runs/{id}/profile payload): "kernels" — compares per-block times
//
// The label defaults to the file's base name when the payload carries none.
func LoadFile(path string) (RunData, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return RunData{}, err
	}
	d, err := decode(b)
	if err != nil {
		return RunData{}, fmt.Errorf("%s: %w", path, err)
	}
	if d.Label == "" {
		d.Label = strings.TrimSuffix(filepath.Base(path), ".json")
	}
	return d, nil
}

// benchEnvelope mirrors the keys cmd/assasin-bench writes that the diff
// engine consumes.
type benchEnvelope struct {
	Experiment string                     `json:"experiment"`
	Telemetry  *telemetry.MetricsSnapshot `json:"telemetry"`
}

func decode(b []byte) (RunData, error) {
	trimmed := strings.TrimSpace(string(b))
	if strings.HasPrefix(trimmed, "[") {
		var reports []*analyze.RunReport
		if err := json.Unmarshal(b, &reports); err != nil {
			return RunData{}, err
		}
		for i, r := range reports {
			if r == nil {
				return RunData{}, fmt.Errorf("report array entry %d is null", i)
			}
		}
		if len(reports) != 1 {
			var labels []string
			for _, r := range reports {
				labels = append(labels, r.Label)
			}
			return RunData{}, fmt.Errorf("report array holds %d runs (%s); pass a single-run file",
				len(reports), strings.Join(labels, ", "))
		}
		return RunData{Label: reports[0].Label, Report: reports[0]}, nil
	}

	var probe map[string]json.RawMessage
	if err := json.Unmarshal(b, &probe); err != nil {
		return RunData{}, err
	}
	switch {
	case probe["experiment"] != nil:
		var env benchEnvelope
		if err := json.Unmarshal(b, &env); err != nil {
			return RunData{}, err
		}
		if env.Telemetry == nil {
			return RunData{}, fmt.Errorf("BENCH envelope %q has no telemetry snapshot; re-run assasin-bench with -metrics or -timeline", env.Experiment)
		}
		return RunData{Label: env.Experiment, Metrics: env.Telemetry}, nil
	case probe["times_ps"] != nil:
		var tl timeline.Timeline
		if err := json.Unmarshal(b, &tl); err != nil {
			return RunData{}, err
		}
		return RunData{Label: tl.Run, Timeline: &tl}, nil
	case probe["kernels"] != nil:
		var prof kprof.Profile
		if err := json.Unmarshal(b, &prof); err != nil {
			return RunData{}, err
		}
		return RunData{Label: prof.Label, Profile: &prof}, nil
	case probe["classes"] != nil && probe["label"] != nil:
		var rep analyze.RunReport
		if err := json.Unmarshal(b, &rep); err != nil {
			return RunData{}, err
		}
		return RunData{Label: rep.Label, Report: &rep}, nil
	case probe["counters"] != nil || probe["gauges"] != nil || probe["histograms"] != nil:
		var snap telemetry.MetricsSnapshot
		if err := json.Unmarshal(b, &snap); err != nil {
			return RunData{}, err
		}
		return RunData{Metrics: &snap}, nil
	default:
		return RunData{}, fmt.Errorf("unrecognized JSON shape (expected a metrics snapshot, timeline, BENCH envelope, attribution report, or kernel profile)")
	}
}
