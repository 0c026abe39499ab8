// Package firmware implements the SSD control plane for computational
// storage requests (Section V-D): it constructs streams from the logical
// pages named in an `scomp` request, schedules flash reads into input
// stream buffers ahead of the consuming cores, drains output stream buffers
// toward SSD DRAM (read-path results) or the flash array (write-path
// results), and tracks request completion. Following the paper's
// control/data-plane separation, the firmware never touches stream
// contents — it only moves pages — and the ASSASIN cores never see flash
// addresses.
package firmware

import (
	"fmt"

	"assasin/internal/cpu"
	"assasin/internal/crossbar"
	"assasin/internal/ftl"
	"assasin/internal/memhier"
	"assasin/internal/sim"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/reqtrace"
)

// DataPath selects how pages travel between the flash controllers and a
// compute engine — the architectural difference between the Table IV
// configurations.
type DataPath int

// Data paths.
const (
	// PathCrossbar: flash controller → crossbar → stream buffer /
	// ping-pong scratchpad, bypassing SSD DRAM (AssasinSp, AssasinSb,
	// AssasinSb$).
	PathCrossbar DataPath = iota
	// PathDRAMStage: flash controller → SSD DRAM; the core then reads the
	// staged pages through its cache hierarchy (Baseline, Prefetch).
	PathDRAMStage
	// PathDRAMCopy: flash controller → SSD DRAM → firmware copy into the
	// accelerator's private scratchpad (UDP), costing DRAM bandwidth twice.
	PathDRAMCopy
)

// StreamSpec names the flash-resident byte range forming one input stream:
// an ordered page list plus a byte window [Offset, Offset+Length) over the
// concatenated pages. The firmware trims partial head/tail pages when
// constructing the stream, which is how the storage engine's task
// decomposition can split a dataset at object boundaries.
type StreamSpec struct {
	LPAs   []int
	Offset int64
	Length int64
}

// TotalBytes returns the stream's length in bytes.
func (s StreamSpec) TotalBytes() int64 { return s.Length }

// OutKind says where an output stream's data goes.
type OutKind int

// Output targets.
const (
	// OutToHost: results are staged in SSD DRAM for the host to fetch
	// (read-path offloads: Filter, Select, Stat...).
	OutToHost OutKind = iota
	// OutToFlash: results are written back to the flash array (write-path
	// offloads: erasure coding parity, encrypted data).
	OutToFlash
	// OutDiscard: results are consumed nowhere (dummy scan workloads).
	OutDiscard
)

// OutTarget configures one output stream slot.
type OutTarget struct {
	Kind OutKind
	// StartLPA is the first logical page for OutToFlash targets.
	StartLPA int
	// Collect retains drained bytes for functional verification.
	Collect bool
}

// Task is the work assigned to one compute engine.
type Task struct {
	Core    *cpu.Core
	CoreID  int
	Inputs  []StreamSpec
	Outputs []OutTarget
}

// Config sets the engine's data-path behaviour.
type Config struct {
	PageSize int
	Path     DataPath
}

// maxSenses bounds outstanding array reads per stream feeder.
const maxSenses = 24

// Tel is the firmware telemetry bundle: data-plane volume counters, task
// lifecycle instants on the "fw" track, and per-feeder/drainer page and
// drain spans (tracks "fw/core<i>/in<slot>" and "fw/core<i>/out<slot>").
type Tel struct {
	sink  *telemetry.Sink
	track *telemetry.Track // task lifecycle instants

	PagesFed       *telemetry.Counter
	BytesFed       *telemetry.Counter
	PagesDrained   *telemetry.Counter
	BytesDrained   *telemetry.Counter
	TasksSubmitted *telemetry.Counter
	TasksCompleted *telemetry.Counter
}

// NewTel registers the firmware metrics on sink (nil sink -> nil Tel).
func NewTel(sink *telemetry.Sink) *Tel {
	if sink == nil {
		return nil
	}
	return &Tel{
		sink:           sink,
		track:          sink.Track("fw"),
		PagesFed:       sink.Counter("fw", "pages_fed"),
		BytesFed:       sink.Counter("fw", "bytes_fed"),
		PagesDrained:   sink.Counter("fw", "pages_drained"),
		BytesDrained:   sink.Counter("fw", "bytes_drained"),
		TasksSubmitted: sink.Counter("fw", "tasks_submitted"),
		TasksCompleted: sink.Counter("fw", "tasks_completed"),
	}
}

// Engine drives one offload request's data plane.
type Engine struct {
	cfg   Config
	sched *sim.Scheduler
	ftl   *ftl.FTL
	dram  *memhier.DRAM
	xbar  *crossbar.Crossbar // nil for channel-local configurations
	// The data plane's DRAM traffic classes.
	fill, fwCopy, result memhier.DRAMClient

	// Tel, when non-nil, records data-plane counters, per-page/drain spans
	// and task lifecycle instants. Set it before Submit.
	Tel *Tel

	// Req, when non-nil, is the open request-trace record this engine's
	// data plane accounts into: per-page sense/transfer/deliver waits,
	// end-of-stream and halt instants, and drain pages. Nil (the default)
	// disables request tracing at nil-pointer-branch cost. Set it before
	// Submit.
	Req *reqtrace.Request

	feeders  []*feeder
	drainers []*drainer
	tasks    []Task

	liveFeeders int
	liveCores   int
	liveDrains  int
	finishedAt  sim.Time
	err         error
}

// New returns an engine bound to the SSD's shared components.
func New(cfg Config, sched *sim.Scheduler, f *ftl.FTL, dram *memhier.DRAM, xbar *crossbar.Crossbar) *Engine {
	return &Engine{cfg: cfg, sched: sched, ftl: f, dram: dram, xbar: xbar,
		fill:   memhier.DRAMClient{Name: "fill"},
		fwCopy: memhier.DRAMClient{Name: "fw-copy"},
		result: memhier.DRAMClient{Name: "result"},
	}
}

// Err returns the first data-plane error.
func (e *Engine) Err() error { return e.err }

func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Submit wires a request's tasks into the scheduler: feeders for every
// input stream, drainers for every output stream, and wake plumbing between
// streams and cores. The caller runs the scheduler afterwards.
func (e *Engine) Submit(tasks []Task) error {
	e.tasks = tasks
	for ti := range tasks {
		t := &tasks[ti]
		sys := t.Core.Sys()
		if len(t.Inputs) > len(sys.Streams.In) {
			return fmt.Errorf("firmware: task %d has %d inputs, core has %d slots", ti, len(t.Inputs), len(sys.Streams.In))
		}
		if len(t.Outputs) > len(sys.Streams.Out) {
			return fmt.Errorf("firmware: task %d has %d outputs, core has %d slots", ti, len(t.Outputs), len(sys.Streams.Out))
		}
		core := t.Core
		e.Req.TaskSetup(ti, t.CoreID)
		if e.Tel != nil {
			e.Tel.TasksSubmitted.Inc()
			e.Tel.track.Instant("task-submit", int64(e.sched.Events.Now()),
				telemetry.Arg{Key: "core", Val: int64(t.CoreID)})
			if e.Req != nil && ti == 0 {
				// Flow arrows link this request's spans across tracks: the
				// arrow opens once on the firmware track at submission (not
				// per task), steps through feeder end-of-stream and core
				// halt, and ends at completion (emitted by the ssd layer).
				e.Tel.track.FlowStart("req", int64(e.sched.Events.Now()), int64(e.Req.ID))
			}
		}
		for si := range t.Inputs {
			fd := &feeder{
				e:      e,
				task:   ti,
				core:   core,
				coreID: t.CoreID,
				stream: sys.Streams.In[si],
				spec:   t.Inputs[si],
			}
			if e.Tel != nil {
				fd.track = e.Tel.sink.Track(fmt.Sprintf("fw/core%d/in%d", t.CoreID, si))
			}
			// Bind the event callbacks once: the steady-state page flow
			// reschedules these same funcs instead of allocating closures.
			fd.pumpFn = func(now sim.Time) {
				fd.pumping = false
				fd.pump(now)
			}
			fd.deliverFn = fd.deliverNext
			e.feeders = append(e.feeders, fd)
			e.liveFeeders++
			stream := fd.stream
			stream.OnPush = func(at sim.Time) {
				core.Wake(at)
				e.sched.Wake(core, at)
			}
			stream.OnFree = func() { fd.schedulePump() }
		}
		for si := range t.Outputs {
			dr := &drainer{
				e:      e,
				task:   ti,
				core:   core,
				coreID: t.CoreID,
				stream: sys.Streams.Out[si],
				target: t.Outputs[si],
				lpa:    t.Outputs[si].StartLPA,
			}
			if e.Tel != nil {
				dr.track = e.Tel.sink.Track(fmt.Sprintf("fw/core%d/out%d", t.CoreID, si))
			}
			dr.pumpFn = func(now sim.Time) {
				dr.pumping = false
				dr.pump(now)
			}
			e.drainers = append(e.drainers, dr)
			e.liveDrains++
			// Flash keeps each page it is handed and the host output keeps
			// each collected page, so such a stream never reuses a chunk.
			dr.stream.Keep = dr.target.Kind == OutToFlash || dr.target.Collect
			dr.stream.OnData = func() { dr.schedulePump() }
			dr.stream.OnSpace = func(at sim.Time) {
				core.Wake(at)
				e.sched.Wake(core, at)
			}
		}
		e.liveCores++
		coreID := t.CoreID
		taskIdx := ti
		core.OnHalt(func(at sim.Time) {
			e.liveCores--
			e.noteProgress(at)
			e.Req.NoteHalt(taskIdx, int64(at))
			if e.Tel != nil {
				e.Tel.TasksCompleted.Inc()
				e.Tel.track.Instant("task-halt", int64(at),
					telemetry.Arg{Key: "core", Val: int64(coreID)})
				if e.Req != nil {
					e.Tel.sink.Track("cpu/"+core.Name()).FlowStep("req", int64(at), int64(e.Req.ID))
				}
			}
			// Push drainers to flush remaining partial pages.
			for _, dr := range e.drainers {
				if dr.core == core {
					dr.coreHalted = true
					dr.schedulePump()
				}
			}
		})
	}
	// Kick all feeders at time zero.
	for _, fd := range e.feeders {
		fd.schedulePump()
	}
	return nil
}

// Done reports whether all cores halted, inputs were fully delivered, and
// outputs fully drained.
func (e *Engine) Done() bool {
	return e.liveCores == 0 && e.liveFeeders == 0 && e.liveDrains == 0
}

// CompletionTime returns the time the request finished (valid once Done).
func (e *Engine) CompletionTime() sim.Time { return e.finishedAt }

func (e *Engine) noteProgress(at sim.Time) {
	if at > e.finishedAt {
		e.finishedAt = at
	}
}

// Collected returns the drained output bytes for (coreID, outSlot) drainers
// with Collect set, in task order. The drained pages are joined into one
// slice of exactly their length on the first call.
func (e *Engine) Collected(coreID, slot int) []byte {
	idx := 0
	for _, dr := range e.drainers {
		if dr.coreID == coreID {
			if idx == slot {
				return dr.output()
			}
			idx++
		}
	}
	return nil
}

// inflight is a page between its array sense and its delivery into the
// input stream.
type inflight struct {
	data       []byte // aliases the flash array's stored page, trimmed to the window
	channel    int
	senseStart sim.Time // when the sense was issued (trace span start)
	senseDone  sim.Time
}

// feeder streams one StreamSpec into one input stream buffer. Pages move
// through it in stream order, tracked by three monotone page cursors,
// delivered <= transferred <= nextPage: pages in [transferred, nextPage)
// are sensed and wait for the channel bus, and pages in
// [delivered, transferred) are transferred and wait for their delivery
// event. Page i lives in ring[i&(len(ring)-1)]; the ring doubles only when
// every slot is in flight, so it stays as small as the pages in flight.
// The event callbacks are bound once at Submit, so the steady-state page
// flow allocates nothing.
type feeder struct {
	e      *Engine
	task   int // request-trace task index
	core   *cpu.Core
	coreID int
	stream *memhier.InStream
	spec   StreamSpec

	ring        []inflight // len is zero or a power of two
	delivered   int
	transferred int
	nextPage    int
	claimed     int
	pumping     bool
	closed      bool
	lastAvail   sim.Time         // enforces in-order delivery across channels
	track       *telemetry.Track // per-feeder page spans; nil when disabled

	pumpFn    func(now sim.Time) // clears pumping, runs pump
	deliverFn func(now sim.Time) // pushes the page at the delivered cursor
}

// slot returns page i's ring entry.
func (f *feeder) slot(i int) *inflight { return &f.ring[i&(len(f.ring)-1)] }

// grow doubles the ring, starting from one slot, and re-places the pages
// in flight at their slots in the larger ring.
func (f *feeder) grow() {
	old := f.ring
	f.ring = make([]inflight, max(1, 2*len(old)))
	for i := f.delivered; i < f.nextPage; i++ {
		*f.slot(i) = old[i&(len(old)-1)]
	}
}

// schedulePump queues a pump event if none is pending and a pump could
// still do work. Once every page has been sensed and transferred the feeder
// is permanently out of pump work — only pending deliveries remain — so the
// per-consumed-word OnFree pings during the drain tail schedule nothing.
// (A pump in that state is a pure no-op at any time, so suppressing it
// cannot change timing; the empty-LPA degenerate still pumps once to close.)
func (f *feeder) schedulePump() {
	if f.pumping || f.closed {
		return
	}
	if f.transferred == len(f.spec.LPAs) && len(f.spec.LPAs) > 0 {
		return
	}
	f.pumping = true
	f.e.sched.Events.Schedule(f.e.sched.Events.Now(), f.pumpFn)
}

// trimForPage returns the slice of page data inside the stream window and
// whether the page contributes any bytes.
func (f *feeder) trimForPage(idx int, data []byte) []byte {
	ps := int64(f.e.cfg.PageSize)
	pageStart := int64(idx) * ps
	pageEnd := pageStart + ps
	winStart := f.spec.Offset
	winEnd := f.spec.Offset + f.spec.Length
	lo := pageStart
	if winStart > lo {
		lo = winStart
	}
	hi := pageEnd
	if winEnd < hi {
		hi = winEnd
	}
	if hi <= lo {
		return nil
	}
	return data[lo-pageStart : hi-pageStart]
}

// pump advances the feeder: issue senses, then gate transfers on window
// space, then deliver.
func (f *feeder) pump(now sim.Time) {
	if f.closed || f.e.err != nil {
		return
	}
	arr := f.e.ftl.Array()
	// Phase 1: issue array senses ahead.
	for f.nextPage < len(f.spec.LPAs) && f.nextPage-f.transferred < maxSenses {
		lpa := f.spec.LPAs[f.nextPage]
		ppa, ok := f.e.ftl.Lookup(lpa)
		if !ok {
			f.e.fail(fmt.Errorf("firmware: unmapped lpa %d", lpa))
			return
		}
		data, senseDone, err := arr.Sense(now, ppa)
		if err != nil {
			f.e.fail(err)
			return
		}
		if f.nextPage-f.delivered == len(f.ring) {
			f.grow()
		}
		*f.slot(f.nextPage) = inflight{
			data:       f.trimForPage(f.nextPage, data),
			channel:    ppa.Channel,
			senseStart: now,
			senseDone:  senseDone,
		}
		f.nextPage++
	}
	// Phase 2: transfer sensed pages while window space allows.
	for f.transferred < f.nextPage {
		pg := f.slot(f.transferred)
		if !f.stream.CanPush(f.claimed + len(pg.data)) {
			return // wait for OnFree
		}
		f.transferred++
		start := sim.MaxT(now, pg.senseDone)
		txDone, err := arr.Transfer(start, pg.channel, f.e.cfg.PageSize)
		if err != nil {
			f.e.fail(err)
			return
		}
		avail, err := f.deliver(txDone)
		if err != nil {
			f.e.fail(err)
			return
		}
		// Pages from lightly loaded channels must not overtake earlier
		// pages of the same stream: delivery is in stream order, which is
		// what lets deliverNext take the page at the delivered cursor.
		avail = sim.MaxT(avail, f.lastAvail)
		f.lastAvail = avail
		if req := f.e.Req; req != nil {
			// Per-page causal components: array sense, channel-bus transfer,
			// and delivery (crossbar grant / DRAM stage plus in-order gating).
			req.AddPage(f.task, int64(len(pg.data)),
				int64(pg.senseDone-pg.senseStart), int64(txDone-start),
				int64(avail-txDone), int64(avail))
		}
		if f.track != nil {
			f.track.Span("page", int64(pg.senseStart), int64(avail),
				telemetry.Arg{Key: "bytes", Val: int64(len(pg.data))},
				telemetry.Arg{Key: "channel", Val: int64(pg.channel)})
			f.e.Tel.PagesFed.Inc()
			f.e.Tel.BytesFed.Add(int64(len(pg.data)))
		}
		f.claimed += len(pg.data)
		f.e.sched.Events.Schedule(avail, f.deliverFn)
	}
	// Degenerate empty stream: close immediately.
	if len(f.spec.LPAs) == 0 && !f.closed {
		f.stream.Close()
		f.closed = true
		f.e.liveFeeders--
		f.e.Req.NoteEOS(f.task, int64(now))
		if f.track != nil {
			f.track.Instant("eos", int64(now))
		}
		f.core.Wake(now)
		f.e.sched.Wake(f.core, now)
	}
}

// deliverNext is the delivery event body: it pushes the page at the
// delivered cursor into the stream at its availability instant and handles
// end-of-stream. Pages deliver strictly in stream order (pump clamps
// availability to be monotone and ties break by schedule order), so the
// fired event always corresponds to that page.
func (f *feeder) deliverNext(at sim.Time) {
	pg := f.slot(f.delivered)
	data := pg.data
	*pg = inflight{}
	f.delivered++
	f.claimed -= len(data)
	if len(data) > 0 {
		if err := f.stream.Push(data, at); err != nil {
			f.e.fail(err)
			return
		}
	}
	if f.delivered == len(f.spec.LPAs) {
		f.stream.Close()
		f.closed = true
		f.e.liveFeeders--
		f.e.noteProgress(at)
		f.e.Req.NoteEOS(f.task, int64(at))
		if f.track != nil {
			f.track.Instant("eos", int64(at))
			if f.e.Req != nil {
				f.track.FlowStep("req", int64(at), int64(f.e.Req.ID))
			}
		}
		f.core.Wake(at)
		f.e.sched.Wake(f.core, at)
	} else {
		f.schedulePump()
	}
}

// deliver routes a transferred page along the configured data path and
// returns when it becomes usable by the core.
func (f *feeder) deliver(txDone sim.Time) (sim.Time, error) {
	ps := f.e.cfg.PageSize
	switch f.e.cfg.Path {
	case PathCrossbar:
		if f.e.xbar == nil {
			return txDone, nil // channel-local: controller feeds its core directly
		}
		return f.e.xbar.Transfer(txDone, f.coreID, ps)
	case PathDRAMStage:
		return f.e.dram.Access(txDone, ps, true, &f.e.fill), nil
	case PathDRAMCopy:
		staged := f.e.dram.Access(txDone, ps, true, &f.e.fill)
		return f.e.dram.Access(staged, ps, false, &f.e.fwCopy), nil
	default:
		return 0, fmt.Errorf("firmware: unknown data path %d", f.e.cfg.Path)
	}
}

// drainer empties one output stream buffer.
type drainer struct {
	e      *Engine
	task   int // request-trace task index
	core   *cpu.Core
	coreID int
	stream *memhier.OutStream
	target OutTarget

	lpa int
	// collected holds the drained pages kept for the host, in order: views
	// of chunks the stream never reuses (OutStream.Keep).
	collected  [][]byte
	pumping    bool
	coreHalted bool
	finished   bool
	track      *telemetry.Track // per-drainer spans; nil when disabled

	pumpFn func(now sim.Time) // bound once at Submit
}

// output joins the collected pages once, at their exact total size.
func (d *drainer) output() []byte {
	switch len(d.collected) {
	case 0:
		return nil
	case 1:
		return d.collected[0]
	}
	n := 0
	for _, p := range d.collected {
		n += len(p)
	}
	out := make([]byte, 0, n)
	for _, p := range d.collected {
		out = append(out, p...)
	}
	d.collected = append(d.collected[:0], out)
	return out
}

func (d *drainer) schedulePump() {
	if d.pumping || d.finished {
		return
	}
	d.pumping = true
	d.e.sched.Events.Schedule(d.e.sched.Events.Now(), d.pumpFn)
}

func (d *drainer) pump(now sim.Time) {
	if d.finished || d.e.err != nil {
		return
	}
	ps := d.stream.PageSize()
	for {
		buffered := d.stream.Buffered()
		if buffered >= ps || (d.coreHalted && buffered > 0) {
			n := ps
			if buffered < n {
				n = buffered
			}
			// The space is freed once the page leaves the OSB; for flash
			// targets that is the bus-transfer completion, for DRAM targets
			// the DRAM write completion.
			var freedAt sim.Time
			// data is a view of the stream's head chunk. A kept stream
			// never reuses it, so flash stores it and the host output
			// collects it as is; otherwise the Drain below releases it for
			// reuse, and the DRAM and discard paths never retain it.
			data := d.stream.PeekBytes(n)
			switch d.target.Kind {
			case OutToFlash:
				busDone, _, err := d.e.ftl.Write(now, d.lpa, data)
				if err != nil {
					d.e.fail(err)
					return
				}
				d.lpa++
				freedAt = busDone
			case OutToHost:
				freedAt = d.e.dram.Access(now, n, true, &d.e.result)
			default:
				freedAt = now
			}
			if d.target.Collect {
				d.collected = append(d.collected, data)
			}
			d.stream.Drain(n, freedAt)
			d.e.Req.AddDrain(d.task, int64(n), int64(now), int64(freedAt))
			if d.track != nil {
				d.track.Span("drain", int64(now), int64(freedAt),
					telemetry.Arg{Key: "bytes", Val: int64(n)})
				d.e.Tel.PagesDrained.Inc()
				d.e.Tel.BytesDrained.Add(int64(n))
			}
			d.e.noteProgress(freedAt)
			continue
		}
		break
	}
	if d.coreHalted && d.stream.Buffered() == 0 {
		d.finished = true
		d.e.liveDrains--
		d.e.noteProgress(now)
	}
}
