package benchmark

import (
	"encoding/json"
	"io"
	"time"
)

// span is one benchmark-side call: a root "op" per offload or load run, with
// children around each public call it makes. Spans of one op share its id.
type span struct {
	Name  string
	Op    int
	Start time.Duration // since the log began
	Dur   time.Duration
}

// spanLog keeps spans in memory until the pass ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(name string, op int, start time.Time, d time.Duration) {
	l.spans = append(l.spans, span{Name: name, Op: op, Start: start.Sub(l.t0), Dur: d})
}

// shares returns each child span name's share of the root op spans' total
// time, in percent. An op's self time is its duration minus its children,
// so the shares sum to 100 less the ops' self share.
func (l *spanLog) shares() map[string]float64 {
	var opTotal time.Duration
	byName := make(map[string]time.Duration)
	for _, s := range l.spans {
		if s.Name == "op" {
			opTotal += s.Dur
		} else {
			byName[s.Name] += s.Dur
		}
	}
	pct := make(map[string]float64, len(byName))
	for name, d := range byName {
		pct[name] = ratio(100*float64(d), float64(opTotal))
	}
	return pct
}

// writeChrome writes the spans as Chrome trace JSON (chrome://tracing,
// Perfetto): complete events on one track, nested by time.
func (l *spanLog) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			Args: map[string]int{"op": s.Op},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
