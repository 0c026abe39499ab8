// Package nvme models the SSD's host interface: submission/completion of
// conventional read and write commands plus the paper's new `scomp` command
// (Fig. 9) that carries a computational-storage request — a compute
// function and the List[List[LPA]] naming its input or output streams.
//
// Its role in the reproduction is the generality claim of Section V-A:
// because ASSASIN pools compute engines behind a crossbar and leaves the
// FTL alone, conventional I/O can interleave freely with computational
// storage operations. Controller.RunMixed demonstrates exactly that —
// normal reads and writes are serviced by the same flash array while an
// offload runs on the ASSASIN cores.
package nvme

import (
	"fmt"
	"sort"

	"assasin/internal/memhier"
	"assasin/internal/sim"
	"assasin/internal/ssd"
	"assasin/internal/telemetry/reqtrace"
)

// Opcode is an NVMe command opcode in this model.
type Opcode int

// Supported commands.
const (
	OpRead Opcode = iota
	OpWrite
	OpSComp // the computational-storage command of Section V-D
)

// String implements fmt.Stringer.
func (o Opcode) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSComp:
		return "scomp"
	default:
		return fmt.Sprintf("op%d", int(o))
	}
}

// IORequest is one conventional read or write submitted at a point in time.
type IORequest struct {
	Op       Opcode
	LPA      int
	Pages    int
	SubmitAt sim.Time
	// Data is the payload for writes (page-sized chunks; short final page
	// allowed). For reads it is ignored.
	Data []byte
	// Tenant tags the request's trace record for per-tenant SLO accounting.
	Tenant string
	// Discard drops the read payload instead of retaining it in the
	// completion — open-loop load runs issue hundreds of thousands of reads
	// whose bytes nobody inspects.
	Discard bool
}

// IOCompletion reports a finished conventional command.
type IOCompletion struct {
	Req     IORequest
	Done    sim.Time
	Latency sim.Time
	Data    []byte // read payload
	Err     error
}

// Config sets host-link parameters.
type Config struct {
	// LinkBandwidth is the host interface bandwidth (PCIe Gen4 x4 ≈ 8 GB/s).
	LinkBandwidth float64
	// LinkLatency is the per-transfer interface latency.
	LinkLatency sim.Time
}

// DefaultConfig matches the paper's PCIe Gen4 x4 host interface.
func DefaultConfig() Config {
	return Config{LinkBandwidth: 8e9, LinkLatency: 5 * sim.Microsecond}
}

// traceKinds holds each opcode's request-trace kind, so a command names its
// record without building a string.
var traceKinds = [...]string{OpRead: "io-read", OpWrite: "io-write", OpSComp: "io-scomp"}

// traceKind returns the request-trace kind of op.
func traceKind(op Opcode) string {
	if op >= 0 && int(op) < len(traceKinds) {
		return traceKinds[op]
	}
	return "io-" + op.String()
}

// Controller fronts one SSD with the NVMe command model.
type Controller struct {
	drive *ssd.SSD
	link  *sim.BandwidthServer
	cfg   Config
	// DRAM traffic of staged host reads and writes.
	hostRead, hostWrite memhier.DRAMClient
	// free recycles command records, so a steady stream of Submits
	// allocates nothing per command.
	free []*command
}

// command is one conventional command between submission and completion.
// Records are pooled per controller; fire is bound once, when the record is
// first allocated, so scheduling a command builds no closure.
type command struct {
	c *Controller
	// out receives the completion: the record's own comp for Submit, the
	// caller's slice element for RunMixed. out.Req is the request.
	out    *IOCompletion
	comp   IOCompletion
	onDone func(IOCompletion)
	fire   func(now sim.Time)
}

// submit schedules one command at req.SubmitAt on a pooled record whose
// completion lands in out (nil selects the record's own slot). out must be
// zero: a fresh slice element, or the slot of a released record.
func (c *Controller) submit(req *IORequest, out *IOCompletion, onDone func(IOCompletion)) {
	var cmd *command
	if n := len(c.free); n > 0 {
		cmd = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		cmd = &command{c: c}
		cmd.fire = cmd.run
	}
	if out == nil {
		out = &cmd.comp
	}
	out.Req = *req
	cmd.out, cmd.onDone = out, onDone
	c.drive.Sched.Events.Schedule(req.SubmitAt, cmd.fire)
}

// run is the command's submission event: execute, report, then recycle.
// The record is released only after onDone returns, so an onDone that
// submits a follow-up command never gets its own record back mid-call.
func (cmd *command) run(now sim.Time) {
	c := cmd.c
	c.execute(cmd.out, now)
	if cmd.onDone != nil {
		cmd.onDone(*cmd.out)
	}
	cmd.comp = IOCompletion{} // drop payload and tenant references
	cmd.out, cmd.onDone = nil, nil
	c.free = append(c.free, cmd)
}

// New wraps an SSD (which must not have run an offload yet).
func New(drive *ssd.SSD, cfg Config) *Controller {
	if cfg.LinkBandwidth <= 0 {
		cfg = DefaultConfig()
	}
	return &Controller{
		drive:     drive,
		link:      sim.NewBandwidthServer("pcie", cfg.LinkBandwidth, cfg.LinkLatency),
		cfg:       cfg,
		hostRead:  memhier.DRAMClient{Name: "host-read"},
		hostWrite: memhier.DRAMClient{Name: "host-write"},
	}
}

// execute services the conventional command slot.Req whose submission
// event fired at now, filling slot with the completion. It traces the
// command end to end (Begin at submission, per-leg path stages, Complete or
// Abort).
func (c *Controller) execute(slot *IOCompletion, now sim.Time) {
	req := &slot.Req
	ps := c.drive.Flash.PageSize
	tracer := c.drive.Opt.Requests
	// RequestIDs are assigned at submission; the event fires exactly
	// at SubmitAt, and event order is deterministic, so IDs are too.
	tr := tracer.Begin(traceKind(req.Op), "", int64(now))
	tr.SetTenant(req.Tenant)
	switch req.Op {
	case OpRead:
		var done sim.Time
		var payload []byte
		// Chain legs of the slowest page: flash read, DRAM stage,
		// host-link transfer. The chain is contiguous from submission
		// (now -> d -> staged -> out), so the legs sum exactly to the
		// command latency.
		var critFlash, critDRAM, critLink sim.Time
		for p := 0; p < req.Pages; p++ {
			data, d, err := c.drive.FTL.Read(now, req.LPA+p)
			if err != nil {
				slot.Err = err
				tracer.Abort(tr)
				return
			}
			if !req.Discard {
				payload = append(payload, data...)
			}
			// Staged in DRAM, then out over the host link.
			staged := c.drive.DRAM.Access(d, ps, true, &c.hostRead)
			out := c.link.Access(staged, ps)
			if out > done {
				done = out
				critFlash, critDRAM, critLink = d-now, staged-d, out-staged
			}
		}
		if tr != nil {
			tr.AddPathClass(reqtrace.IDFlashWait, int64(critFlash))
			tr.AddPathClass(reqtrace.IDDRAMWait, int64(critDRAM))
			tr.AddPathClass(reqtrace.IDHostLink, int64(critLink))
		}
		slot.Data = payload
		slot.Done = done
		slot.Latency = done - req.SubmitAt
		tracer.Complete(tr, int64(done))
	case OpWrite:
		var done sim.Time
		var critLink, critDRAM, critFlash sim.Time
		for p := 0; p < req.Pages; p++ {
			lo := p * ps
			hi := lo + ps
			var chunk []byte
			if lo < len(req.Data) {
				if hi > len(req.Data) {
					hi = len(req.Data)
				}
				chunk = req.Data[lo:hi]
			}
			in := c.link.Access(now, ps)
			staged := c.drive.DRAM.Access(in, ps, true, &c.hostWrite)
			busDone, _, err := c.drive.FTL.Write(staged, req.LPA+p, chunk)
			if err != nil {
				slot.Err = err
				tracer.Abort(tr)
				return
			}
			if busDone > done {
				done = busDone
				critLink, critDRAM, critFlash = in-now, staged-in, busDone-staged
			}
		}
		if tr != nil {
			tr.AddPathClass(reqtrace.IDHostLink, int64(critLink))
			tr.AddPathClass(reqtrace.IDDRAMWait, int64(critDRAM))
			tr.AddPathClass(reqtrace.IDFlashWait, int64(critFlash))
		}
		slot.Done = done
		slot.Latency = done - req.SubmitAt
		tracer.Complete(tr, int64(done))
	default:
		slot.Err = fmt.Errorf("nvme: opcode %v not valid as conventional IO", req.Op)
		tracer.Abort(tr)
	}
}

// Submit schedules one conventional command as a firmware event at
// req.SubmitAt. onDone (if non-nil) is invoked from that event with the
// finished completion — arrival generators use it to account results without
// retaining a completion slice. The drive's event queue must be driven (via
// RunOffload or RunUntil) for the event to fire.
func (c *Controller) Submit(req IORequest, onDone func(IOCompletion)) {
	c.submit(&req, nil, onDone)
}

// RunMixed executes an scomp offload while servicing conventional I/O on
// the same drive. It returns the offload result and the I/O completions.
// Either side may be empty: no tasks degenerates to pure I/O, no reqs to a
// plain offload.
func (c *Controller) RunMixed(tasks []ssd.TaskSpec, reqs []IORequest, deadline sim.Time) (*ssd.Result, []IOCompletion, error) {
	// The commands go through Submit's pooled path, completing straight
	// into the returned slice.
	completions := make([]IOCompletion, len(reqs))
	for i := range reqs {
		c.submit(&reqs[i], &completions[i], nil)
	}
	var res *ssd.Result
	var err error
	if len(tasks) > 0 {
		c.drive.SetRequestLabel(OpSComp.String())
		res, err = c.drive.RunOffload(tasks, deadline)
	} else {
		// Pure I/O: drive the event queue directly, leaving its clock at
		// the last completion so later commands on this drive are not
		// dragged to the deadline.
		if deadline <= 0 {
			deadline = 100 * sim.Second
		}
		c.drive.Sched.Events.FlushUntil(deadline)
	}
	if err != nil {
		return nil, nil, err
	}
	for i := range completions {
		if completions[i].Err != nil {
			return nil, nil, fmt.Errorf("nvme: %v lpa %d: %w", completions[i].Req.Op, completions[i].Req.LPA, completions[i].Err)
		}
		if completions[i].Done == 0 && completions[i].Req.Pages > 0 {
			return nil, nil, fmt.Errorf("nvme: %v lpa %d never completed", completions[i].Req.Op, completions[i].Req.LPA)
		}
	}
	return res, completions, nil
}

// LatencyStats summarizes completion latencies.
type LatencyStats struct {
	N    int
	Mean sim.Time
	P99  sim.Time
	Max  sim.Time
}

// Latencies computes summary statistics over completions.
func Latencies(cs []IOCompletion) LatencyStats {
	if len(cs) == 0 {
		return LatencyStats{}
	}
	lats := make([]sim.Time, 0, len(cs))
	var sum sim.Time
	for _, c := range cs {
		lats = append(lats, c.Latency)
		sum += c.Latency
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[(len(lats)*99)/100]
	return LatencyStats{
		N:    len(lats),
		Mean: sum / sim.Time(len(lats)),
		P99:  p99,
		Max:  lats[len(lats)-1],
	}
}
