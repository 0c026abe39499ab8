package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Exporters. Two formats:
//
//   - Chrome trace-event JSON ({"traceEvents":[...]}): loadable in Perfetto
//     (ui.perfetto.dev) or chrome://tracing. Runs map to processes, tracks
//     to threads; ts/dur are microseconds of simulated time (the format's
//     unit), derived from the picosecond timestamps.
//
//   - Flat metrics JSON: counters/gauges/histograms keyed "component/name",
//     shaped to merge into the existing BENCH_<exp>.json envelope (the
//     bench cmd embeds MetricsSnapshot under a "telemetry" key).
//
// Both writers emit deterministically ordered output (sorted keys, stable
// event order) so golden-file tests and diffs are meaningful.

// chromeEvent is the JSON shape of one trace-event entry. Cat/ID/BP are
// only set on flow events ('s'/'t'/'f'): flows bind globally by (cat, id),
// so the exporter scopes IDs per run by prefixing the pid, and "bp":"e"
// binds step/end arrows to the enclosing slice at their timestamp.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat,omitempty"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  *float64         `json:"dur,omitempty"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	S    string           `json:"s,omitempty"`
	ID   string           `json:"id,omitempty"`
	BP   string           `json:"bp,omitempty"`
	Args map[string]int64 `json:"args,omitempty"`
}

const psPerMicro = 1e6

// WriteChromeTrace writes the buffered trace as Chrome trace-event JSON.
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}
	// metaEvent is the process/thread-name metadata shape.
	type metaEvent struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	if s != nil {
		for _, r := range s.runs {
			label := r.label
			if label == "" {
				label = fmt.Sprintf("run %d", r.pid)
			}
			if err := emit(metaEvent{Name: "process_name", Ph: "M", Pid: r.pid,
				Args: map[string]string{"name": label}}); err != nil {
				return err
			}
			for _, t := range r.order {
				if err := emit(metaEvent{Name: "thread_name", Ph: "M", Pid: r.pid, Tid: t.tid,
					Args: map[string]string{"name": t.name}}); err != nil {
					return err
				}
			}
		}
		for i := range s.events {
			e := &s.events[i]
			ce := chromeEvent{
				Name: e.name,
				Ph:   string(e.ph),
				Ts:   float64(e.ts) / psPerMicro,
				Pid:  e.pid,
				Tid:  e.tid,
			}
			if e.ph == phComplete {
				d := float64(e.dur) / psPerMicro
				ce.Dur = &d
			}
			if e.ph == phInstant {
				ce.S = "t" // thread-scoped instant
			}
			if e.ph == phFlowStart || e.ph == phFlowStep || e.ph == phFlowEnd {
				ce.Cat = "req"
				ce.ID = fmt.Sprintf("%d:%d", e.pid, e.id)
				if e.ph != phFlowStart {
					ce.BP = "e"
				}
			}
			if e.nargs > 0 {
				ce.Args = make(map[string]int64, e.nargs)
				for i := 0; i < e.nargs; i++ {
					ce.Args[e.args[i].Key] = e.args[i].Val
				}
			}
			if err := emit(ce); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// GaugeSnapshot is the exported view of a gauge.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// BucketSnapshot is one cumulative histogram bucket: Count observations
// had values <= LE (Prometheus "le" semantics; the in-memory power-of-two
// buckets are half-open [lo, hi), so LE is hi-1 exclusive rounded to the
// bucket's upper bound).
type BucketSnapshot struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is the exported view of a histogram. The percentiles
// are bucket-interpolated estimates (see Histogram.Percentile); Buckets
// carry the non-empty power-of-two buckets cumulatively for native
// Prometheus histogram exposition.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Max     int64            `json:"max"`
	Mean    float64          `json:"mean"`
	P50     float64          `json:"p50"`
	P95     float64          `json:"p95"`
	P99     float64          `json:"p99"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// MetricsSnapshot is the flat metrics export, keyed "component/name".
type MetricsSnapshot struct {
	Counters     map[string]int64             `json:"counters,omitempty"`
	Gauges       map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms   map[string]HistogramSnapshot `json:"histograms,omitempty"`
	TraceEvents  int                          `json:"trace_events,omitempty"`
	TraceDropped int64                        `json:"trace_dropped,omitempty"`
}

// Metrics snapshots every registered metric. Returns an empty snapshot for
// a nil sink. It may run concurrently with Absorb, so a root's snapshot can
// be published while other runs are still being absorbed.
func (s *Sink) Metrics() MetricsSnapshot {
	var m MetricsSnapshot
	if s == nil {
		return m
	}
	s.absorbMu.Lock()
	defer s.absorbMu.Unlock()
	if len(s.counters) > 0 {
		m.Counters = make(map[string]int64, len(s.counters))
		for k, c := range s.counters {
			m.Counters[k.component+"/"+k.name] = c.Value()
		}
	}
	if len(s.gauges) > 0 {
		m.Gauges = make(map[string]GaugeSnapshot, len(s.gauges))
		for k, g := range s.gauges {
			m.Gauges[k.component+"/"+k.name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
		}
	}
	if len(s.hists) > 0 {
		m.Histograms = make(map[string]HistogramSnapshot, len(s.hists))
		for k, h := range s.hists {
			snap := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Max: h.MaxValue()}
			if snap.Count > 0 {
				snap.Mean = float64(snap.Sum) / float64(snap.Count)
				snap.P50 = h.Percentile(0.50)
				snap.P95 = h.Percentile(0.95)
				snap.P99 = h.Percentile(0.99)
				snap.Buckets = h.Buckets()
			}
			m.Histograms[k.component+"/"+k.name] = snap
		}
	}
	m.TraceEvents = len(s.events)
	m.TraceDropped = s.dropped
	return m
}

// WriteMetricsJSON writes the metrics snapshot as indented JSON
// (encoding/json sorts map keys, so output order is deterministic).
func (s *Sink) WriteMetricsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Metrics())
}

// createFile creates path's parent directories then the file itself.
func createFile(path string) (*os.File, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return os.Create(path)
}

// WriteChromeTraceFile writes the Chrome trace to path, creating parent
// directories as needed.
func (s *Sink) WriteChromeTraceFile(path string) error {
	f, err := createFile(path)
	if err != nil {
		return err
	}
	if err := s.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteMetricsFile writes the metrics JSON to path, creating parent
// directories as needed.
func (s *Sink) WriteMetricsFile(path string) error {
	f, err := createFile(path)
	if err != nil {
		return err
	}
	if err := s.WriteMetricsJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
