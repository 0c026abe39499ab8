package telemetry

// Event trace: begin/end ("complete") spans and instants on named tracks,
// grouped into runs. In the Chrome trace-event export each run becomes a
// process (pid) and each track a thread (tid), so Perfetto renders one
// swim-lane per component/task and one process group per experiment run.

// Phase bytes follow the Chrome trace-event format.
const (
	phComplete  = 'X'
	phInstant   = 'i'
	phCounter   = 'C'
	phFlowStart = 's'
	phFlowStep  = 't'
	phFlowEnd   = 'f'
)

// maxArgs bounds per-event args so event records stay flat (no per-event
// map/slice allocation beyond the variadic call).
const maxArgs = 2

// Arg is one key/value annotation attached to a span or instant.
type Arg struct {
	Key string
	Val int64
}

// traceRun groups tracks under one pid (one experiment/workload run).
type traceRun struct {
	pid    int
	label  string
	tracks map[string]*Track
	order  []*Track
}

// Track is a named swim-lane within the current run. A nil *Track is a
// valid disabled track: Span and Instant are no-ops.
type Track struct {
	sink *Sink
	pid  int
	tid  int
	name string
}

// event is one recorded trace event; ts/dur are simulated picoseconds.
// id carries the flow-binding identifier for flow phases ('s'/'t'/'f').
type event struct {
	pid   int
	tid   int
	ph    byte
	name  string
	ts    int64
	dur   int64
	id    int64
	args  [maxArgs]Arg
	nargs int
}

// StartRun begins a new trace process group; subsequent Track calls attach
// to it. Safe to call on a nil sink.
func (s *Sink) StartRun(label string) {
	if s == nil {
		return
	}
	r := &traceRun{
		pid:    len(s.runs) + 1,
		label:  label,
		tracks: make(map[string]*Track),
	}
	s.runs = append(s.runs, r)
	s.cur = r
}

// Track returns the track named name in the current run, creating it (and,
// if StartRun was never called, an implicit first run) on first use.
// Returns nil on a nil sink.
func (s *Sink) Track(name string) *Track {
	if s == nil {
		return nil
	}
	if s.cur == nil {
		s.StartRun("")
	}
	r := s.cur
	if t, ok := r.tracks[name]; ok {
		return t
	}
	t := &Track{sink: s, pid: r.pid, tid: len(r.order) + 1, name: name}
	r.tracks[name] = t
	r.order = append(r.order, t)
	return t
}

// RecordsEvents reports whether the sink keeps trace events (MaxEvents is
// not negative). Timeline samplers mirror their class lanes into such a
// sink. Each run observes into a private sink that records events only if
// its root does, and the root absorbs it at the run boundary; a root that
// records events therefore has its runs simulated one at a time.
func (s *Sink) RecordsEvents() bool { return s != nil && s.MaxEvents >= 0 }

func (s *Sink) record(e event) {
	if s.MaxEvents < 0 {
		return
	}
	if s.MaxEvents > 0 && len(s.events) >= s.MaxEvents {
		if s.dropped == 0 && s.Log != nil {
			s.Log.Warn("telemetry: trace event cap reached, dropping further events",
				"cap", s.MaxEvents)
		}
		s.dropped++
		return
	}
	s.events = append(s.events, e)
}

// Span records a complete span [startPs, endPs) on the track. Zero-length
// spans are kept (dur 0) so boundaries remain visible. At most two args are
// recorded; extras are dropped.
func (t *Track) Span(name string, startPs, endPs int64, args ...Arg) {
	if t == nil {
		return
	}
	e := event{pid: t.pid, tid: t.tid, ph: phComplete, name: name, ts: startPs, dur: endPs - startPs}
	e.nargs = copy(e.args[:], args)
	t.sink.record(e)
}

// Instant records a point event at tsPs on the track.
func (t *Track) Instant(name string, tsPs int64, args ...Arg) {
	if t == nil {
		return
	}
	e := event{pid: t.pid, tid: t.tid, ph: phInstant, name: name, ts: tsPs}
	e.nargs = copy(e.args[:], args)
	t.sink.record(e)
}

// Counter records one counter-track sample at tsPs. The Chrome export
// renders these as "ph":"C" events, which Perfetto graphs as a stacked
// counter lane named after the event, so a sampler can mirror its series
// into the trace timeline.
func (t *Track) Counter(name string, tsPs, value int64) {
	if t == nil {
		return
	}
	e := event{pid: t.pid, tid: t.tid, ph: phCounter, name: name, ts: tsPs}
	e.args[0] = Arg{Key: "value", Val: value}
	e.nargs = 1
	t.sink.record(e)
}

// FlowStart opens a flow arrow (Chrome phase 's') named name at tsPs,
// bound to later FlowStep/FlowEnd events sharing id within the same run.
// The request tracer uses flows to link one request's spans across the
// firmware, flash-feeder and core tracks.
func (t *Track) FlowStart(name string, tsPs, id int64) { t.flow(phFlowStart, name, tsPs, id) }

// FlowStep continues a flow (phase 't') on this track at tsPs.
func (t *Track) FlowStep(name string, tsPs, id int64) { t.flow(phFlowStep, name, tsPs, id) }

// FlowEnd terminates a flow (phase 'f') on this track at tsPs.
func (t *Track) FlowEnd(name string, tsPs, id int64) { t.flow(phFlowEnd, name, tsPs, id) }

func (t *Track) flow(ph byte, name string, tsPs, id int64) {
	if t == nil {
		return
	}
	t.sink.record(event{pid: t.pid, tid: t.tid, ph: ph, name: name, ts: tsPs, id: id})
}

// TraceEvent is the read-side view of one recorded event, for tests and
// programmatic consumers.
type TraceEvent struct {
	Run   string // run label (process name)
	Track string // track name (thread name)
	Name  string
	Phase string // "X" (span), "i" (instant), "C" (counter), "s"/"t"/"f" (flow)
	TsPs  int64
	DurPs int64 // 0 for instants
	// FlowID is the flow-binding identifier for flow events (0 otherwise).
	FlowID int64
	Args   map[string]int64
}

// Events returns every recorded event in emission order.
func (s *Sink) Events() []TraceEvent {
	if s == nil {
		return nil
	}
	// Index (pid, tid) -> names for labeling.
	runLabel := make(map[int]string, len(s.runs))
	trackName := make(map[[2]int]string)
	for _, r := range s.runs {
		runLabel[r.pid] = r.label
		for _, t := range r.order {
			trackName[[2]int{r.pid, t.tid}] = t.name
		}
	}
	out := make([]TraceEvent, 0, len(s.events))
	for _, e := range s.events {
		te := TraceEvent{
			Run:    runLabel[e.pid],
			Track:  trackName[[2]int{e.pid, e.tid}],
			Name:   e.name,
			Phase:  string(e.ph),
			TsPs:   e.ts,
			DurPs:  e.dur,
			FlowID: e.id,
		}
		if e.nargs > 0 {
			te.Args = make(map[string]int64, e.nargs)
			for i := 0; i < e.nargs; i++ {
				te.Args[e.args[i].Key] = e.args[i].Val
			}
		}
		out = append(out, te)
	}
	return out
}

// EventCount returns the number of buffered trace events.
func (s *Sink) EventCount() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}
