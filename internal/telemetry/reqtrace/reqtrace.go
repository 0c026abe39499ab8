// Package reqtrace is the request-scoped tracing layer: every offload (and
// conventional NVMe command) is assigned a RequestID at submission and
// accumulates one compact causal record across its lifecycle — firmware task
// setup, per-feeder flash sense/transfer waits, crossbar grant waits,
// stream-buffer refill and out-full stalls, per-dispatch core exec slices,
// and drain/completion. From each record the tracer derives a deterministic
// critical path: a chain of segments whose durations sum exactly to the
// submit→complete latency, classified into the attribution engine's five
// stall classes plus queueing and drain.
//
// Zero-cost contract: a nil *Tracer and a nil *Request are valid disabled
// instances — every method is a nil-receiver no-op, so call sites in the
// data plane compile to a branch on a nil pointer. Records are fixed-shape
// and pooled: task slots and segment slices are reused across requests, and
// the per-page accounting is plain integer accumulation, one AddPage per
// page the firmware transfers, so steady-state tracing allocates nothing
// per page.
//
// Like package telemetry, a Tracer belongs to one simulation goroutine.
// Parallel fan-outs give every run a private tracer (the per-run-sink
// pattern); summaries are merged by the caller keyed on run labels, so
// reports are byte-identical for any -parallel setting.
package reqtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"assasin/internal/cpu"
	"assasin/internal/sim"
	"assasin/internal/telemetry"
)

// Critical-path segment classes beyond the five attribution classes
// (cpu.ClassNames) that cover the core-execution window.
const (
	// ClassQueueing covers submit → first core dispatch of the critical task.
	ClassQueueing = "queueing"
	// ClassDrain covers critical-task halt → request completion (output
	// drain and end-of-stream tails).
	ClassDrain = "drain"
	// ClassUnattributed absorbs any residue the per-class cycle accounting
	// could not cover; the exactness test pins it to zero for every
	// Table II workload.
	ClassUnattributed = "unattributed"

	// Conventional-IO chain classes (nvme read/write commands).
	ClassFlashWait = "flash-wait"
	ClassDRAMWait  = "dram-wait"
	ClassHostLink  = "host-link-wait"
)

// ClassID indexes the closed table of critical-path classes. Segments carry
// their ClassID beside the exported name from the moment they are appended,
// so completion accumulates per-class totals and histograms by array index
// with no string hashing or comparison.
type ClassID uint8

// The class table. IDs below execClasses are the core-execution window's
// attribution classes, indexed like cpu.ClassNames; the exported IDs are
// the conventional-IO legs callers pass to AddPathClass.
const (
	idQueueing = ClassID(execClasses) + iota
	idDrain
	idUnattributed
	IDFlashWait
	IDDRAMWait
	IDHostLink
	numClasses
)

// execClasses is the number of core-execution window classes.
const execClasses = cpu.NumClasses

// classNames maps each ClassID to its segment class name.
var classNames = func() (n [numClasses]string) {
	copy(n[:], cpu.ClassNames[:])
	n[idQueueing] = ClassQueueing
	n[idDrain] = ClassDrain
	n[idUnattributed] = ClassUnattributed
	n[IDFlashWait] = ClassFlashWait
	n[IDDRAMWait] = ClassDRAMWait
	n[IDHostLink] = ClassHostLink
	return n
}()

// Segment is one critical-path link. Segments are an exact decomposition of
// the request latency — their durations sum to complete-submit — laid out
// in lifecycle order (queueing, execution-window classes, drain); the
// execution-window classes are an attribution of that window, not a
// temporal ordering within it.
type Segment struct {
	Class string `json:"class"`
	DurPs int64  `json:"dur_ps"`
}

// TaskTrace is the per-task accumulator inside a request record: firmware
// data-plane waits on one side, the core's cycle-accounting deltas on the
// other. All times are simulated picoseconds.
type TaskTrace struct {
	Task   int `json:"task"`
	CoreID int `json:"core"`

	// Core-side deltas over the request (filled at completion).
	StartPs      int64 `json:"start_ps"`
	HaltPs       int64 `json:"halt_ps"`
	BusyPs       int64 `json:"busy_ps"`
	MemPs        int64 `json:"cache_dram_wait_ps"`
	RefillPs     int64 `json:"stream_refill_wait_ps"`
	OutFullPs    int64 `json:"out_full_wait_ps"`
	ExecPs       int64 `json:"exec_stall_ps"`
	Instructions int64 `json:"instructions"`
	Dispatches   int64 `json:"dispatches"`

	// Feeder-side accumulators, one AddPage per page.
	PagesFed     int64 `json:"pages_fed"`
	BytesFed     int64 `json:"bytes_fed"`
	SensePs      int64 `json:"sense_ps"`
	TransferPs   int64 `json:"transfer_ps"`
	DeliverPs    int64 `json:"deliver_ps"`
	FirstAvailPs int64 `json:"first_avail_ps"`
	EOSPs        int64 `json:"eos_ps"`

	// Drainer-side accumulators.
	PagesDrained int64 `json:"pages_drained"`
	BytesDrained int64 `json:"bytes_drained"`
	DrainPs      int64 `json:"drain_ps"`
	LastDrainPs  int64 `json:"last_drain_ps"`
}

// classPs returns the task's core-side deltas per class, indexed like
// cpu.ClassNames.
func (t *TaskTrace) classPs() (c [cpu.NumClasses]int64) {
	c[0] = t.BusyPs
	c[1+cpu.StallMem] = t.MemPs
	c[1+cpu.StallStreamWait] = t.RefillPs
	c[1+cpu.StallOutFull] = t.OutFullPs
	c[1+cpu.StallExec] = t.ExecPs
	return c
}

// finish is the task's last observed progress instant.
func (t *TaskTrace) finish() int64 {
	f := t.HaltPs
	if t.EOSPs > f {
		f = t.EOSPs
	}
	if t.LastDrainPs > f {
		f = t.LastDrainPs
	}
	return f
}

// Request is one in-flight (or retained) request record. The zero receiver
// (nil) is a valid disabled record: every method is a no-op.
type Request struct {
	ID        uint64      `json:"id"`
	Kind      string      `json:"kind"`
	Label     string      `json:"label,omitempty"`
	Tenant    string      `json:"tenant,omitempty"`
	SubmitPs  int64       `json:"submit_ps"`
	LatencyPs int64       `json:"latency_ps"`
	Critical  []Segment   `json:"critical"`
	Tasks     []TaskTrace `json:"tasks,omitempty"`

	completePs int64
	// critIDs holds the ClassID of each Critical segment, index for index.
	critIDs []ClassID
	// path is a staged pre-classified chain (conventional IO commands);
	// when non-empty it replaces the task-derived critical path.
	path []stage
}

// stage is one pre-classified chain link before normalization.
type stage struct {
	id  ClassID
	dur int64
}

// reset prepares a pooled record for reuse, keeping slice capacity.
func (r *Request) reset() {
	r.Tasks = r.Tasks[:0]
	r.Critical = r.Critical[:0]
	r.critIDs = r.critIDs[:0]
	r.path = r.path[:0]
	r.Label, r.Tenant = "", ""
	r.SubmitPs, r.completePs, r.LatencyPs = 0, 0, 0
}

// SetTenant tags the request with a tenant label for SLO accounting. Safe on
// a nil request.
func (r *Request) SetTenant(tenant string) {
	if r == nil {
		return
	}
	r.Tenant = tenant
}

// TaskSetup declares task index task running on coreID; grows the task
// table as needed. Safe on a nil request.
func (r *Request) TaskSetup(task, coreID int) {
	if r == nil {
		return
	}
	for len(r.Tasks) <= task {
		r.Tasks = append(r.Tasks, TaskTrace{Task: len(r.Tasks), FirstAvailPs: -1, EOSPs: -1})
	}
	r.Tasks[task].CoreID = coreID
}

// AddPage accounts one delivered page on task's
// feeder side: the sense, bus-transfer, and delivery (crossbar grant / DRAM
// stage) wait components plus the availability instant.
func (r *Request) AddPage(task int, bytes, sensePs, transferPs, deliverPs, availPs int64) {
	if r == nil || task >= len(r.Tasks) {
		return
	}
	t := &r.Tasks[task]
	t.PagesFed++
	t.BytesFed += bytes
	t.SensePs += sensePs
	t.TransferPs += transferPs
	t.DeliverPs += deliverPs
	if t.FirstAvailPs < 0 || availPs < t.FirstAvailPs {
		t.FirstAvailPs = availPs
	}
}

// NoteEOS records the instant task's last input page was pushed.
func (r *Request) NoteEOS(task int, at int64) {
	if r == nil || task >= len(r.Tasks) {
		return
	}
	if t := &r.Tasks[task]; at > t.EOSPs {
		t.EOSPs = at
	}
}

// AddDrain accounts one drained output page on task.
func (r *Request) AddDrain(task int, bytes, startPs, freedPs int64) {
	if r == nil || task >= len(r.Tasks) {
		return
	}
	t := &r.Tasks[task]
	t.PagesDrained++
	t.BytesDrained += bytes
	t.DrainPs += freedPs - startPs
	if freedPs > t.LastDrainPs {
		t.LastDrainPs = freedPs
	}
}

// NoteHalt records the instant task's core halted.
func (r *Request) NoteHalt(task int, at int64) {
	if r == nil || task >= len(r.Tasks) {
		return
	}
	r.Tasks[task].HaltPs = at
}

// SetCoreDelta installs task's core-side accounting for the request: the
// local-clock value at submission and the per-class time (indexed like
// cpu.ClassNames) and stat deltas accumulated between submission and halt.
// Exactness invariant (pinned by test): the class times sum to halt-start
// for every task, because the core's local clock only advances through
// accounted paths.
func (r *Request) SetCoreDelta(task int, startPs int64, classPs [cpu.NumClasses]int64, insts, dispatches int64) {
	if r == nil || task >= len(r.Tasks) {
		return
	}
	t := &r.Tasks[task]
	t.StartPs = startPs
	t.BusyPs = classPs[0]
	t.MemPs = classPs[1+cpu.StallMem]
	t.RefillPs = classPs[1+cpu.StallStreamWait]
	t.OutFullPs = classPs[1+cpu.StallOutFull]
	t.ExecPs = classPs[1+cpu.StallExec]
	t.Instructions = insts
	t.Dispatches = dispatches
}

// AddPathClass appends one pre-classified chain stage (conventional IO:
// flash/DRAM/host-link legs of the command's slowest page). Stages are
// normalized against the submit→complete span at completion. An ID outside
// the table is recorded as ClassUnattributed, so the path still sums
// exactly to the latency.
func (r *Request) AddPathClass(id ClassID, durPs int64) {
	if r == nil {
		return
	}
	if id >= numClasses {
		id = idUnattributed
	}
	r.path = append(r.path, stage{id, durPs})
}

// addSegment appends one critical-path segment with its class ID.
func (r *Request) addSegment(id ClassID, durPs int64) {
	r.Critical = append(r.Critical, Segment{Class: classNames[id], DurPs: durPs})
	r.critIDs = append(r.critIDs, id)
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// appendNormalized lays stages over the [0, span] window in order,
// truncating at the window edge and padding any residue as unattributed, so
// the appended durations sum exactly to span.
func (r *Request) appendNormalized(stages []stage, span int64) {
	rem := span
	for _, sg := range stages {
		if rem <= 0 {
			break
		}
		d := sg.dur
		if d > rem {
			d = rem
		}
		if d > 0 {
			r.addSegment(sg.id, d)
			rem -= d
		}
	}
	if rem > 0 {
		r.addSegment(idUnattributed, rem)
	}
}

// buildCritical derives the request's critical path. The construction
// telescopes clamped anchors (submit ≤ start ≤ halt ≤ complete), so the
// segment durations always sum exactly to complete-submit; the exactness
// test additionally pins the unattributed residue to zero.
func (r *Request) buildCritical() {
	r.Critical = r.Critical[:0]
	r.critIDs = r.critIDs[:0]
	submit := r.SubmitPs
	complete := r.completePs
	if complete < submit {
		complete = submit
		r.completePs = complete
	}
	r.LatencyPs = complete - submit
	if len(r.path) > 0 {
		r.appendNormalized(r.path, complete-submit)
		return
	}
	if len(r.Tasks) == 0 {
		if complete > submit {
			r.addSegment(idUnattributed, complete-submit)
		}
		return
	}
	// The critical task is the one whose progress instant is last; ties
	// break toward the lowest task index.
	crit := 0
	best := r.Tasks[0].finish()
	for i := 1; i < len(r.Tasks); i++ {
		if f := r.Tasks[i].finish(); f > best {
			best, crit = f, i
		}
	}
	ct := &r.Tasks[crit]
	// The execution window is anchored at its end (the core's halt instant,
	// on the core's own clock) and sized by the cycle accounting: the core's
	// local clock only advances through accounted paths once dispatched, so
	// halt minus the class sum is the first accounted cycle. Everything
	// before it — scheduler admission, the dispatch-start clock jump — is
	// queueing by definition, which keeps the decomposition exact without
	// trusting the submission-time clock snapshot.
	var window [execClasses]stage
	var sum int64
	for i, ps := range ct.classPs() {
		window[i] = stage{ClassID(i), ps}
		sum += ps
	}
	s2 := clamp(ct.HaltPs, submit, complete)
	s1 := clamp(s2-sum, submit, s2)
	if q := s1 - submit; q > 0 {
		r.addSegment(idQueueing, q)
	}
	r.appendNormalized(window[:], s2-s1)
	if d := complete - s2; d > 0 {
		r.addSegment(idDrain, d)
	}
}

// Config parameterizes a Tracer.
type Config struct {
	// TopK is how many slowest requests are retained with full segment and
	// task detail (<= 0 selects the default of 8).
	TopK int
}

// Tracer assigns RequestIDs, pools records, accumulates per-class latency
// histograms on its sink (component "req"), and retains the K slowest
// requests. The nil *Tracer is valid and disabled.
type Tracer struct {
	cfg  Config
	sink *telemetry.Sink
	lat  *telemetry.Histogram

	seq         uint64
	count       int64
	latencySum  int64
	latencyMax  int64
	classTotals [execClasses]int64 // exec-window stats deltas over all tasks
	critTotals  [numClasses]int64  // summed critical segments by class
	critSeen    [numClasses]bool   // classes that have had a segment
	// critHists holds the per-class histograms, registered on a class's
	// first segment (so in first-seen order) and indexed ever after.
	critHists [numClasses]*telemetry.Histogram

	free []*Request
	top  []*Request // latency desc, id asc

	// OnComplete, when non-nil, observes every completed record after its
	// critical path and latency are final but before the record is pooled or
	// retained — the SLO engine's feed point. The callback must not hold on
	// to r (records are pooled).
	OnComplete func(r *Request)
	// OnAbort, when non-nil, observes aborted records (failed requests) so
	// availability objectives can count them as bad events.
	OnAbort func(r *Request)
}

// New returns a tracer registering its histograms on sink (a nil sink just
// disables the histogram side; tracing still works).
func New(sink *telemetry.Sink, cfg Config) *Tracer {
	if cfg.TopK <= 0 {
		cfg.TopK = 8
	}
	return &Tracer{
		cfg:  cfg,
		sink: sink,
		lat:  sink.Histogram("req", "latency_ps"),
	}
}

// Begin opens a request record at submitPs and assigns the next RequestID.
// Returns nil on a nil tracer.
func (t *Tracer) Begin(kind, label string, submitPs int64) *Request {
	if t == nil {
		return nil
	}
	var r *Request
	if n := len(t.free); n > 0 {
		r = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		r.reset()
	} else {
		r = &Request{}
	}
	t.seq++
	r.ID = t.seq
	r.Kind = kind
	r.Label = label
	r.SubmitPs = submitPs
	return r
}

// Abort discards an open record (failed request) without recording it.
func (t *Tracer) Abort(r *Request) {
	if t == nil || r == nil {
		return
	}
	if t.OnAbort != nil {
		t.OnAbort(r)
	}
	t.free = append(t.free, r)
}

// Complete closes the record at completePs: derives the critical path,
// feeds the latency histograms, accumulates class totals, and retains the
// record if it ranks among the K slowest.
func (t *Tracer) Complete(r *Request, completePs int64) {
	if t == nil || r == nil {
		return
	}
	r.completePs = completePs
	r.buildCritical()
	lat := r.LatencyPs
	t.count++
	t.latencySum += lat
	if lat > t.latencyMax {
		t.latencyMax = lat
	}
	for i := range r.Tasks {
		for c, ps := range r.Tasks[i].classPs() {
			t.classTotals[c] += ps
		}
	}
	t.lat.Observe(lat)
	for i, sg := range r.Critical {
		id := r.critIDs[i]
		t.critTotals[id] += sg.DurPs
		if !t.critSeen[id] {
			t.critSeen[id] = true
			t.critHists[id] = t.sink.Histogram("req", "crit_"+classNames[id]+"_ps")
		}
		t.critHists[id].Observe(sg.DurPs)
	}
	if t.OnComplete != nil {
		t.OnComplete(r)
	}
	t.retain(r)
}

// retain keeps r if it is among the K slowest, otherwise pools it.
// Ordering is (latency desc, id asc): among equal latencies the earliest
// request wins, so retention is independent of completion interleaving.
func (t *Tracer) retain(r *Request) {
	k := t.cfg.TopK
	pos := sort.Search(len(t.top), func(i int) bool {
		o := t.top[i]
		if o.LatencyPs != r.LatencyPs {
			return o.LatencyPs < r.LatencyPs
		}
		return o.ID > r.ID
	})
	if pos >= k {
		t.free = append(t.free, r)
		return
	}
	t.top = append(t.top, nil)
	copy(t.top[pos+1:], t.top[pos:])
	t.top[pos] = r
	if len(t.top) > k {
		evict := t.top[len(t.top)-1]
		t.top[len(t.top)-1] = nil
		t.top = t.top[:len(t.top)-1]
		t.free = append(t.free, evict)
	}
}

// Count returns how many requests completed (0 on a nil tracer).
func (t *Tracer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count
}

// Summary is the deterministic, serializable digest of a tracer: totals,
// per-class aggregates, and the K slowest requests with full detail.
type Summary struct {
	Label        string `json:"label,omitempty"`
	Count        int64  `json:"count"`
	LatencySumPs int64  `json:"latency_sum_ps"`
	LatencyMaxPs int64  `json:"latency_max_ps"`
	// ClassTotalsPs sums the exec-window stats deltas over every task of
	// every request — the same five classes the attribution engine reports,
	// and (for a fresh SSD) exactly its numbers.
	ClassTotalsPs map[string]int64 `json:"class_totals_ps,omitempty"`
	// CriticalTotalsPs sums critical-path segment durations by class; it
	// adds queueing/drain and totals exactly Count requests' latencies.
	CriticalTotalsPs map[string]int64 `json:"critical_totals_ps,omitempty"`
	Slowest          []Request        `json:"slowest,omitempty"`
}

// Summary snapshots the tracer (nil tracer -> nil).
func (t *Tracer) Summary(label string) *Summary {
	if t == nil {
		return nil
	}
	s := &Summary{
		Label:        label,
		Count:        t.count,
		LatencySumPs: t.latencySum,
		LatencyMaxPs: t.latencyMax,
	}
	if t.count > 0 {
		s.ClassTotalsPs = make(map[string]int64, execClasses)
		for i, v := range t.classTotals {
			s.ClassTotalsPs[classNames[i]] = v
		}
		s.CriticalTotalsPs = make(map[string]int64, numClasses)
		for i, v := range t.critTotals {
			if t.critSeen[i] {
				s.CriticalTotalsPs[classNames[i]] = v
			}
		}
	}
	for _, r := range t.top {
		cp := *r
		cp.Critical = append([]Segment(nil), r.Critical...)
		cp.Tasks = append([]TaskTrace(nil), r.Tasks...)
		cp.critIDs, cp.path = nil, nil
		s.Slowest = append(s.Slowest, cp)
	}
	return s
}

// Find returns the retained request with the given id, or nil.
func (s *Summary) Find(id uint64) *Request {
	if s == nil {
		return nil
	}
	for i := range s.Slowest {
		if s.Slowest[i].ID == id {
			return &s.Slowest[i]
		}
	}
	return nil
}

// criticalString renders a request's critical path as "class dur · ...".
func (r *Request) criticalString() string {
	out := ""
	for i, sg := range r.Critical {
		if i > 0 {
			out += " · "
		}
		out += sg.Class + " " + sim.Time(sg.DurPs).String()
	}
	return out
}

// WriteText renders the summary as an aligned, deterministic text report.
func (s *Summary) WriteText(w io.Writer) error {
	if s == nil {
		return nil
	}
	head := "requests"
	if s.Label != "" {
		head = "requests " + s.Label
	}
	mean := int64(0)
	if s.Count > 0 {
		mean = s.LatencySumPs / s.Count
	}
	if _, err := fmt.Fprintf(w, "%s: %d completed, mean %s, max %s\n",
		head, s.Count, sim.Time(mean), sim.Time(s.LatencyMaxPs)); err != nil {
		return err
	}
	if len(s.CriticalTotalsPs) > 0 {
		classes := make([]string, 0, len(s.CriticalTotalsPs))
		for c := range s.CriticalTotalsPs {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		if _, err := fmt.Fprintf(w, "  critical-path totals:"); err != nil {
			return err
		}
		for _, c := range classes {
			share := 0.0
			if s.LatencySumPs > 0 {
				share = 100 * float64(s.CriticalTotalsPs[c]) / float64(s.LatencySumPs)
			}
			if _, err := fmt.Fprintf(w, " %s %.1f%%", c, share); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for i := range s.Slowest {
		r := &s.Slowest[i]
		if _, err := fmt.Fprintf(w, "  #%-3d %-8s %10s  %s\n",
			r.ID, r.Kind, sim.Time(r.LatencyPs), r.criticalString()); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummariesJSON writes summaries (already ordered by the caller) as
// deterministic indented JSON.
func WriteSummariesJSON(w io.Writer, sums []*Summary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sums)
}
