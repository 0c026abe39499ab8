package experiments

import (
	"bytes"
	"sync"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/reqtrace"
)

// captureTable2Requests runs the Table II survey with per-run request
// tracing at the given pool width, returning each run's summary JSON keyed
// by label.
func captureTable2Requests(t *testing.T, workers int) map[string]string {
	t.Helper()
	cfg := quickFor(workers)
	cfg.Telemetry = telemetry.NewSink()
	cfg.Telemetry.MaxEvents = -1 // metrics-only: private per-run sinks
	cfg.Requests = 4
	var mu sync.Mutex
	sums := make(map[string]string)
	cfg.OnRunDone = func(rec analyze.Run) {
		if rec.Requests == nil {
			t.Errorf("%s: no request summary on record", rec.Label)
			return
		}
		var buf bytes.Buffer
		if err := reqtrace.WriteSummariesJSON(&buf, []*reqtrace.Summary{rec.Requests}); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		sums[rec.Label] = buf.String()
		mu.Unlock()
	}
	if _, err := Table2(cfg); err != nil {
		t.Fatal(err)
	}
	return sums
}

// TestRequestsParallelDeterminism checks that per-run request tracing is
// parallel-safe end to end: every run's summary JSON — IDs, latencies,
// critical paths, top-K ordering — is byte-identical between sequential and
// 4-way parallel execution.
func TestRequestsParallelDeterminism(t *testing.T) {
	seq := captureTable2Requests(t, 1)
	par := captureTable2Requests(t, 4)
	if len(seq) == 0 || len(seq) != len(par) {
		t.Fatalf("summary counts differ: %d vs %d", len(seq), len(par))
	}
	for label, s := range seq {
		if p, ok := par[label]; !ok {
			t.Errorf("parallel run missing request summary for %s", label)
		} else if s != p {
			t.Errorf("%s: request summary JSON differs between workers=1 and workers=4:\n--- seq\n%s\n--- par\n%s", label, s, p)
		}
	}
}

// TestCriticalPathInvariant is the exactness contract over every Table II
// workload on both architectures: for every traced request the critical-path
// segments sum EXACTLY to the submit→complete latency, contain no
// unattributed residue, and the summary's per-class totals reconcile with
// the attribution engine's numbers for the same run.
func TestCriticalPathInvariant(t *testing.T) {
	cfg := quickFor(1)
	cfg.Requests = 4
	checked := 0
	cfg.OnRunDone = func(rec analyze.Run) {
		sum := rec.Requests
		if sum == nil || sum.Count == 0 || len(sum.Slowest) == 0 {
			t.Errorf("%s: no traced requests", rec.Label)
			return
		}
		for _, req := range sum.Slowest {
			var total int64
			for _, sg := range req.Critical {
				total += sg.DurPs
				if sg.Class == reqtrace.ClassUnattributed {
					t.Errorf("%s request %d: unattributed segment of %dps\n%+v",
						rec.Label, req.ID, sg.DurPs, req.Critical)
				}
				if sg.DurPs <= 0 {
					t.Errorf("%s request %d: non-positive segment %+v", rec.Label, req.ID, sg)
				}
			}
			if total != req.LatencyPs {
				t.Errorf("%s request %d: segments sum to %dps, latency is %dps\n%+v",
					rec.Label, req.ID, total, req.LatencyPs, req.Critical)
			}
			checked++
		}
		// The tracer's per-task stat deltas must agree with the attribution
		// engine, which reads the same counters from the run's CoreStats:
		// fresh SSD, one offload, so deltas equal absolutes.
		for i, class := range cpu.ClassNames {
			if got, w := sum.ClassTotalsPs[class], rec.ClassPs[i]; got != w {
				t.Errorf("%s: tracer %s total = %dps, attribution says %dps", rec.Label, class, got, w)
			}
		}
	}
	if _, err := Table2(cfg); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no requests checked")
	}
}
