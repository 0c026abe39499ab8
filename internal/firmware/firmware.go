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

var debugFeeder = false

// DebugFeeder toggles feeder tracing (tests only).
func DebugFeeder(on bool) { debugFeeder = on }

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

// PlaneMode selects how the firmware turns transferred pages into stream
// pushes: one queue event per page (the reference structure), or a
// coalesced delivery train that absorbs consecutive unconstrained
// deliveries into a single dispatch. Both produce byte-identical timing,
// results, and telemetry — the per-page mode exists as the equivalence
// oracle for the coalesced default.
type PlaneMode int

// Data-plane modes. The zero value is the coalesced fast path so that
// default-constructed options get the production configuration, mirroring
// cpu.ExecCompiled.
const (
	// PlaneCoalesced batches consecutive page deliveries of one feeder
	// into a single event dispatch whenever nothing else in the event
	// queue would have fired between them (see feeder.train).
	PlaneCoalesced PlaneMode = iota
	// PlanePerPage schedules one delivery event per page, exactly the
	// structure the per-page reference implementation used; the
	// equivalence tests select it as the oracle for PlaneCoalesced.
	PlanePerPage
)

// String implements fmt.Stringer.
func (m PlaneMode) String() string {
	switch m {
	case PlaneCoalesced:
		return "coalesced"
	case PlanePerPage:
		return "perpage"
	default:
		return fmt.Sprintf("PlaneMode(%d)", int(m))
	}
}

// Config sets the engine's data-path behaviour.
type Config struct {
	PageSize int
	Path     DataPath
	// MaxSenses bounds outstanding array reads per stream feeder.
	MaxSenses int
	// Plane selects the delivery event structure (default PlaneCoalesced).
	Plane PlaneMode
}

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
	if cfg.MaxSenses <= 0 {
		cfg.MaxSenses = 24
	}
	return &Engine{cfg: cfg, sched: sched, ftl: f, dram: dram, xbar: xbar}
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
			fd.trainFn = fd.train
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

// LiveCounts reports outstanding work (cores, feeders, drainers) for
// diagnostics.
func (e *Engine) LiveCounts() (cores, feeders, drains int) {
	return e.liveCores, e.liveFeeders, e.liveDrains
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
// with Collect set, in task order.
func (e *Engine) Collected(coreID, slot int) []byte {
	idx := 0
	for _, dr := range e.drainers {
		if dr.coreID == coreID {
			if idx == slot {
				return dr.collected
			}
			idx++
		}
	}
	return nil
}

// sensedPage is a page whose tR sense completed, waiting for bus transfer.
type sensedPage struct {
	data       []byte // aliases the flash array's stored page, trimmed to the window
	channel    int
	senseStart sim.Time // when the sense was issued (trace span start)
	senseDone  sim.Time
	last       bool
	rawSize    int // bus occupancy (full page)
}

// delivery is a transferred page waiting for its availability instant, when
// it is pushed into the input stream. In per-page mode each delivery has its
// own queue event; in coalesced mode the feeder keeps one armed "train"
// event carrying the whole FIFO, with every entry retaining the (avail, seq)
// sort key the per-page event would have had.
type delivery struct {
	data  []byte
	avail sim.Time
	seq   int64 // reserved event-queue rank (coalesced mode)
	last  bool
}

// feeder streams one StreamSpec into one input stream buffer. Its sensed
// and pending queues are ring-style FIFOs over reused backing arrays, and
// its event callbacks are bound once at Submit, so the steady-state page
// flow allocates nothing.
type feeder struct {
	e      *Engine
	task   int // request-trace task index
	core   *cpu.Core
	coreID int
	stream *memhier.InStream
	spec   StreamSpec

	nextPage   int
	sensed     []sensedPage
	sensedHead int
	pending    []delivery
	pendHead   int
	claimed    int
	pumping    bool
	armed      bool // coalesced: a train event is queued
	closed     bool
	lastAvail  sim.Time         // enforces in-order delivery across channels
	track      *telemetry.Track // per-feeder page spans; nil when disabled

	pumpFn    func(now sim.Time) // clears pumping, runs pump
	deliverFn func(now sim.Time) // per-page: deliver the pending head
	trainFn   func(now sim.Time) // coalesced: run the delivery train
}

func (f *feeder) sensedLen() int { return len(f.sensed) - f.sensedHead }

func (f *feeder) sensedPop() sensedPage {
	pg := f.sensed[f.sensedHead]
	f.sensed[f.sensedHead] = sensedPage{}
	f.sensedHead++
	if f.sensedHead == len(f.sensed) {
		f.sensed = f.sensed[:0]
		f.sensedHead = 0
	}
	return pg
}

func (f *feeder) pendingLen() int { return len(f.pending) - f.pendHead }

func (f *feeder) pendingPop() delivery {
	d := f.pending[f.pendHead]
	f.pending[f.pendHead] = delivery{}
	f.pendHead++
	if f.pendHead == len(f.pending) {
		f.pending = f.pending[:0]
		f.pendHead = 0
	}
	return d
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
	if f.nextPage >= len(f.spec.LPAs) && f.sensedLen() == 0 && len(f.spec.LPAs) > 0 {
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
	if debugFeeder {
		fmt.Printf("pump t=%v next=%d sensed=%d claimed=%d buffered=%d head=%d tail=%d\n",
			now, f.nextPage, f.sensedLen(), f.claimed, f.stream.Buffered(), f.stream.Head(), f.stream.Tail())
	}
	arr := f.e.ftl.Array()
	// Phase 1: issue array senses ahead.
	for f.nextPage < len(f.spec.LPAs) && f.sensedLen() < f.e.cfg.MaxSenses {
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
		trimmed := f.trimForPage(f.nextPage, data)
		f.nextPage++
		f.sensed = append(f.sensed, sensedPage{
			data:       trimmed,
			channel:    ppa.Channel,
			senseStart: now,
			senseDone:  senseDone,
			last:       f.nextPage == len(f.spec.LPAs),
			rawSize:    f.e.cfg.PageSize,
		})
	}
	// Phase 2: transfer sensed pages while window space allows.
	for f.sensedLen() > 0 {
		pg := f.sensed[f.sensedHead]
		if !f.stream.CanPush(f.claimed + len(pg.data)) {
			f.armTrain()
			return // wait for OnFree
		}
		f.sensedPop()
		start := sim.MaxT(now, pg.senseDone)
		txDone, err := arr.Transfer(start, pg.channel, pg.rawSize)
		if err != nil {
			f.e.fail(err)
			return
		}
		avail, err := f.deliver(txDone, pg)
		if err != nil {
			f.e.fail(err)
			return
		}
		// Pages from lightly loaded channels must not overtake earlier
		// pages of the same stream: delivery is in stream order.
		avail = sim.MaxT(avail, f.lastAvail)
		f.lastAvail = avail
		if req := f.e.Req; req != nil {
			// Per-page causal components: array sense, channel-bus transfer,
			// and delivery (crossbar grant / DRAM stage plus in-order gating).
			// Coalesced trains reuse these accumulators — attribution happens
			// here at transfer time, so a train delivering N pages in one
			// dispatch attributes all N in bulk with no extra work.
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
		if debugFeeder {
			fmt.Printf("FTRACE page sense=%v waitTx=%v tx=%v deliver=%v\n",
				pg.senseDone, sim.MaxT(now, pg.senseDone), txDone, avail)
		}
		f.claimed += len(pg.data)
		if f.e.cfg.Plane == PlanePerPage {
			f.pending = append(f.pending, delivery{data: pg.data, avail: avail, last: pg.last})
			f.e.sched.Events.Schedule(avail, f.deliverFn)
		} else {
			// Reserve the event-queue rank the per-page schedule would
			// have claimed here, so the train's deliveries keep the exact
			// global (At, seq) dispatch order.
			seq := f.e.sched.Events.ReserveSeq()
			f.pending = append(f.pending, delivery{data: pg.data, avail: avail, seq: seq, last: pg.last})
		}
	}
	f.armTrain()
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

// armTrain makes sure a coalesced-mode train event is queued at the pending
// head's reserved (avail, seq) slot. No-op in per-page mode or when the
// train is already armed or there is nothing pending.
func (f *feeder) armTrain() {
	if f.e.cfg.Plane == PlanePerPage || f.armed || f.pendingLen() == 0 {
		return
	}
	d := f.pending[f.pendHead]
	f.armed = true
	f.e.sched.Events.ScheduleSeq(d.avail, d.seq, f.trainFn)
}

// train is the coalesced delivery loop: it fires as the pending head's own
// event (same time, same FIFO rank as the per-page event would have had) and
// then keeps delivering subsequent pending pages inline as long as each one
// is exactly what the event queue would dispatch next — no other event
// sorts before it and it lies within the current dispatch horizon. At the
// first contention boundary (an interleaved pump or another feeder's event,
// or an availability past the horizon) it re-arms at the blocked page's
// reserved slot and yields.
func (f *feeder) train(now sim.Time) {
	f.armed = false
	if f.e.err != nil {
		return
	}
	q := &f.e.sched.Events
	first := true
	for f.pendingLen() > 0 {
		d := f.pending[f.pendHead]
		if !first {
			nt, ns := q.PeekNext()
			if d.avail > q.Horizon() || nt < d.avail || (nt == d.avail && ns < d.seq) {
				f.armed = true
				q.ScheduleSeq(d.avail, d.seq, f.trainFn)
				return
			}
			// This delivery is the queue's next dispatch: absorb it here,
			// advancing the clock exactly as its own event would have.
			q.AdvanceTo(d.avail)
			now = d.avail
		}
		first = false
		f.pendingPop()
		f.doDeliver(now, d)
		if f.e.err != nil || f.closed {
			return
		}
	}
}

// deliverNext is the per-page delivery event body: pages deliver strictly
// in FIFO order (availability is monotone and ties break by schedule
// order), so the fired event always corresponds to the pending head.
func (f *feeder) deliverNext(at sim.Time) {
	f.doDeliver(at, f.pendingPop())
}

// doDeliver pushes one transferred page into the stream at its availability
// instant and handles end-of-stream.
func (f *feeder) doDeliver(at sim.Time, d delivery) {
	f.claimed -= len(d.data)
	if len(d.data) > 0 {
		if err := f.stream.Push(d.data, at); err != nil {
			f.e.fail(err)
			return
		}
	}
	if d.last {
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
func (f *feeder) deliver(txDone sim.Time, pg sensedPage) (sim.Time, error) {
	switch f.e.cfg.Path {
	case PathCrossbar:
		if f.e.xbar == nil {
			return txDone, nil // channel-local: controller feeds its core directly
		}
		return f.e.xbar.Transfer(txDone, f.coreID, pg.rawSize)
	case PathDRAMStage:
		return f.e.dram.Access(txDone, pg.rawSize, true, "fill"), nil
	case PathDRAMCopy:
		staged := f.e.dram.Access(txDone, pg.rawSize, true, "fill")
		return f.e.dram.Access(staged, pg.rawSize, false, "fw-copy"), nil
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

	lpa        int
	collected  []byte
	pumping    bool
	coreHalted bool
	finished   bool
	track      *telemetry.Track // per-drainer spans; nil when disabled

	pumpFn func(now sim.Time) // bound once at Submit
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
			// data aliases the stream's scratch buffer and is only valid
			// until the Drain call below; flash.Array.Write copies the page
			// into its own store and the DRAM path never retains it.
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
				freedAt = d.e.dram.Access(now, n, true, "result")
			default:
				freedAt = now
			}
			// drained also aliases the scratch buffer (and overwrote data
			// above); append copies it out before the next Peek/Drain.
			drained := d.stream.Drain(n, freedAt)
			if d.target.Collect {
				d.collected = append(d.collected, drained...)
			}
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
