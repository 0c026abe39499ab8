package ssd

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden telemetry trace under testdata/")

// runStatTelemetry offloads a tiny Table II Stat workload (the survey's
// first row) on a fresh AssasinSb drive with the given sink attached.
func runStatTelemetry(t *testing.T, tel *telemetry.Sink, mode cpu.ExecMode) *Result {
	t.Helper()
	data := makeWords(16<<10, 7)
	tel.StartRun("Stat/AssasinSb")
	s := New(Options{Arch: AssasinSb, Cores: 2, Exec: mode, Telemetry: tel})
	lpas, err := s.InstallBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunKernel(KernelRun{
		Kernel:     kernels.Stat{},
		Inputs:     [][]int{lpas},
		InputBytes: []int64{int64(len(data))},
		RecordSize: 4,
		Cores:      2,
		OutKind:    firmware.OutDiscard,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.PublishStats()
	return res
}

func TestTelemetryCountersNonzero(t *testing.T) {
	tel := telemetry.NewSink()
	runStatTelemetry(t, tel, cpu.ExecCompiled)

	for _, c := range [][2]string{
		{"flash", "senses"},
		{"flash", "transfers"},
		{"flash", "transfer_bytes"},
		{"xbar", "grants"},
		{"xbar", "bytes"},
		{"stream", "push_pages"},
		{"stream", "push_bytes"},
		{"ftl", "lookups"},
		{"sched", "dispatches"},
		{"fw", "pages_fed"},
		{"fw", "tasks_submitted"},
		{"fw", "tasks_completed"},
	} {
		if v := tel.Metrics().Counters[c[0]+"/"+c[1]]; v <= 0 {
			t.Errorf("counter %s/%s = %d, want > 0", c[0], c[1], v)
		}
	}
	snap := tel.Metrics()
	if g, ok := snap.Gauges["flash/ch0_busy_ps"]; !ok || g.Value <= 0 {
		t.Errorf("flash/ch0_busy_ps gauge = %+v, want > 0", g)
	}
	if snap.TraceEvents == 0 {
		t.Error("no trace events recorded")
	}
	if snap.TraceDropped != 0 {
		t.Errorf("dropped %d events on a tiny workload", snap.TraceDropped)
	}
}

// TestTelemetryGoldenChromeTrace pins the exported Chrome trace for the
// tiny Stat workload. The simulation is deterministic, so the file is
// byte-stable; regenerate with go test ./internal/ssd -run Golden -update
// after an intentional timing or instrumentation change.
func TestTelemetryGoldenChromeTrace(t *testing.T) {
	tel := telemetry.NewSink()
	runStatTelemetry(t, tel, cpu.ExecCompiled)

	var buf bytes.Buffer
	if err := tel.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// Structural validity regardless of golden contents.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	var spans, instants, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Dur < 0 || e.Ts < 0 {
				t.Fatalf("negative span timing: %+v", e)
			}
		case "i":
			instants++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if spans == 0 || instants == 0 || meta == 0 {
		t.Fatalf("trace missing event classes: %d spans, %d instants, %d metadata", spans, instants, meta)
	}

	golden := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace deviates from %s (%d vs %d bytes); run with -update if the change is intentional",
			golden, buf.Len(), len(want))
	}
}

// TestTelemetryCompiledPreciseReconcile checks that the compiled
// threaded-code engine and the precise interpreter emit identical traces:
// the compiled engine's invariant (every Run call returns at the same
// local-time boundary) means span boundaries, instants, and metrics all
// agree at dispatch-slice granularity.
func TestTelemetryCompiledPreciseReconcile(t *testing.T) {
	telP := telemetry.NewSink()
	runStatTelemetry(t, telP, cpu.ExecPrecise)
	evP := telP.Events()
	var bufP bytes.Buffer
	if err := telP.WriteMetricsJSON(&bufP); err != nil {
		t.Fatal(err)
	}

	telC := telemetry.NewSink()
	runStatTelemetry(t, telC, cpu.ExecCompiled)
	evC := telC.Events()
	if len(evC) == 0 {
		t.Fatal("compiled run recorded no events")
	}
	if len(evC) != len(evP) {
		t.Fatalf("event count mismatch: compiled %d, precise %d", len(evC), len(evP))
	}
	for i := range evC {
		c, err := json.Marshal(evC[i])
		if err != nil {
			t.Fatal(err)
		}
		p, err := json.Marshal(evP[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c, p) {
			t.Fatalf("event %d diverges:\n  compiled: %s\n  precise: %s", i, c, p)
		}
	}

	// The "exec" spans specifically must exist and reconcile — they are
	// the per-dispatch compute record every engine emits.
	var execSpans int
	for _, e := range evC {
		if e.Name == "exec" {
			execSpans++
		}
	}
	if execSpans == 0 {
		t.Fatal("compiled run recorded no exec spans")
	}

	// Metrics agree too (instruction-level counters are mode-independent).
	var bufC bytes.Buffer
	if err := telC.WriteMetricsJSON(&bufC); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufC.Bytes(), bufP.Bytes()) {
		t.Error("metrics snapshots diverge between compiled and precise modes")
	}
}
