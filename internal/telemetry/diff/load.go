package diff

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"assasin/internal/cpu"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/kprof"
	"assasin/internal/telemetry/timeline"
)

// LoadFile reads one comparison side from a JSON file, auto-detecting the
// format by its top-level keys. Each shape fills the Run fields it carries:
//
//   - a flat metrics snapshot (assasin-sim/-bench -metrics): "counters" /
//     "gauges" / "histograms" — Metrics, and ClassPs from the
//     "class/<name>_ps" gauges
//   - a timeline (-timeline): "times_ps" — Timeline, and ClassPs from the
//     integrals of its class series
//   - a BENCH_<exp>.json envelope (-json): "experiment" — like a metrics
//     snapshot, from the embedded "telemetry", which must be present
//   - a single attribution report, or a BENCH_report.json array holding
//     exactly one: "classes" + "label" — label, kernel, arch, cores,
//     duration, input bytes, ClassPs by class name, and Metrics.Counters
//   - a guest kernel profile (-kprof-dir profile.json or the serve
//     /runs/{id}/profile payload): "kernels" — Profile
//
// The label defaults to the file's base name when the payload carries none.
func LoadFile(path string) (analyze.Run, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return analyze.Run{}, err
	}
	run, err := decode(b)
	if err != nil {
		return analyze.Run{}, fmt.Errorf("%s: %w", path, err)
	}
	if run.Label == "" {
		run.Label = strings.TrimSuffix(filepath.Base(path), ".json")
	}
	return run, nil
}

// benchEnvelope mirrors the keys cmd/assasin-bench writes that the diff
// engine consumes.
type benchEnvelope struct {
	Experiment string                     `json:"experiment"`
	Telemetry  *telemetry.MetricsSnapshot `json:"telemetry"`
}

func decode(b []byte) (analyze.Run, error) {
	trimmed := strings.TrimSpace(string(b))
	if strings.HasPrefix(trimmed, "[") {
		var reports []*analyze.RunReport
		if err := json.Unmarshal(b, &reports); err != nil {
			return analyze.Run{}, err
		}
		if len(reports) != 1 || reports[0] == nil {
			return analyze.Run{}, fmt.Errorf("report array holds %d entries, want one non-null run; pass a single-run file", len(reports))
		}
		return reportRun(reports[0]), nil
	}

	var probe map[string]json.RawMessage
	if err := json.Unmarshal(b, &probe); err != nil {
		return analyze.Run{}, err
	}
	switch {
	case probe["experiment"] != nil:
		var env benchEnvelope
		if err := json.Unmarshal(b, &env); err != nil {
			return analyze.Run{}, err
		}
		if env.Telemetry == nil {
			return analyze.Run{}, fmt.Errorf("BENCH envelope %q has no telemetry snapshot; re-run assasin-bench with -metrics or -timeline", env.Experiment)
		}
		return metricsRun(env.Experiment, env.Telemetry), nil
	case probe["times_ps"] != nil:
		var tl timeline.Timeline
		if err := json.Unmarshal(b, &tl); err != nil {
			return analyze.Run{}, err
		}
		run := analyze.Run{Label: tl.Run, Timeline: &tl}
		// Rate series integrate exactly (decimation preserves sums), so the
		// timeline alone reconstructs the per-class totals.
		for i, class := range cpu.ClassNames {
			if se := tl.SeriesByKey(timeline.ClassPrefix + class); se != nil {
				for _, v := range se.Values {
					run.ClassPs[i] += v
				}
			}
		}
		return run, nil
	case probe["kernels"] != nil:
		var prof kprof.Profile
		if err := json.Unmarshal(b, &prof); err != nil {
			return analyze.Run{}, err
		}
		return analyze.Run{Label: prof.Label, Profile: &prof}, nil
	case probe["classes"] != nil && probe["label"] != nil:
		var rep analyze.RunReport
		if err := json.Unmarshal(b, &rep); err != nil {
			return analyze.Run{}, err
		}
		return reportRun(&rep), nil
	case probe["counters"] != nil || probe["gauges"] != nil || probe["histograms"] != nil:
		var snap telemetry.MetricsSnapshot
		if err := json.Unmarshal(b, &snap); err != nil {
			return analyze.Run{}, err
		}
		return metricsRun("", &snap), nil
	default:
		return analyze.Run{}, fmt.Errorf("unrecognized JSON shape (expected a metrics snapshot, timeline, BENCH envelope, attribution report, or kernel profile)")
	}
}

// reportRun reads a run back from its attribution report. Classes the
// engine does not know are dropped.
func reportRun(rep *analyze.RunReport) analyze.Run {
	run := analyze.Run{
		Label: rep.Label, Kernel: rep.Kernel, Arch: rep.Arch, Cores: rep.Cores,
		DurationPs: rep.DurationPs, InputBytes: rep.InputBytes,
		Metrics: &telemetry.MetricsSnapshot{Counters: rep.Counters},
	}
	for _, s := range rep.Classes {
		for i, class := range cpu.ClassNames {
			if s.Class == class {
				run.ClassPs[i] = s.Ps
			}
		}
	}
	return run
}

// metricsRun reads a run from a metrics snapshot: its class times are the
// "class/<name>_ps" gauges ssd.PublishStats sets.
func metricsRun(label string, snap *telemetry.MetricsSnapshot) analyze.Run {
	run := analyze.Run{Label: label, Metrics: snap}
	for i, class := range cpu.ClassNames {
		run.ClassPs[i] = snap.Gauges["class/"+class+"_ps"].Value
	}
	return run
}
