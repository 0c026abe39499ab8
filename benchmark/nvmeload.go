package benchmark

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/nvme"
	"assasin/internal/sim"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/reqtrace"
	"assasin/internal/telemetry/slo"
	"assasin/internal/telemetry/window"
)

func init() { workloads = append(workloads, nvmeLoad) }

// The open-loop load of internal/experiments/load.go: Poisson arrivals,
// 99% single-page reads, Zipf keys, two tenants, and a scan offload
// alongside under tenant "batch", on loadDrives drives that run one after
// another, as the experiment runs its drives with one worker. Each drive is
// an op, so calibration (calibrate.go) interleaves with the load as it does
// with the offloads.
const (
	loadDrives   = 8
	loadRequests = 250_000 // per drive
	loadRate     = 2.5e5   // simulated requests per second
	loadReadFrac = 0.99
	loadKeys     = 1024
	loadZipfS    = 1.2
	loadZipfV    = 8
	loadScanKB   = 1 << 10
	loadCores    = 8
	// loadBatch is the command count behind one op_ms sample.
	loadBatch   = 1000
	batchTenant = "batch"
)

var loadTenants = [2]string{"gold", "silver"}

var nvmeLoad = Workload{
	Name: "nvme-load",
	Why: "open-loop Poisson NVMe reads and writes with Zipf keys beside a scan offload on eight drives in turn, " +
		"traced by reqtrace and the slo engine: the serving path through ftl, flash, sim, telemetry",
	prepare: prepareLoad,
}

// loadOp is one drive's whole load run. The arrival schedule is generated
// up front, so the simulator never pays for the generator's draws. The
// drives share the key space's contents and the write payload.
type loadOp struct {
	name    string
	at      []int64  // arrival instants, simulated picoseconds
	key     []uint16 // key index into the installed key space
	flags   []uint8  // bit 0: tenant index; bit 1: write
	keyData []byte
	scan    []byte
	payload []byte
}

func prepareLoad(seed int64, scale float64) []op {
	n := int(loadRequests * scale)
	if n < loadBatch {
		n = loadBatch
	}
	src := newSources(seed)
	keyData := randBytes(src.next(), loadKeys*pageSize)
	payload := randBytes(src.next(), pageSize)
	var ops []op
	for d := 0; d < loadDrives; d++ {
		o := &loadOp{name: fmt.Sprintf("load/d%d", d), keyData: keyData, payload: payload}
		o.schedule(src.next(), n)
		o.scan = randBytes(src.next(), scaled(loadScanKB, scale)<<10)
		ops = append(ops, o)
	}
	return ops
}

// schedule draws n arrivals.
func (o *loadOp) schedule(rng *rand.Rand, n int) {
	zipf := rand.NewZipf(rng, loadZipfS, loadZipfV, loadKeys-1)
	o.at, o.key, o.flags = make([]int64, n), make([]uint16, n), make([]uint8, n)
	var at int64
	for i := range o.at {
		dt := int64(-math.Log(1-rng.Float64()) * 1e12 / loadRate)
		if dt < 1 {
			dt = 1
		}
		at += dt
		o.at[i] = at
		o.key[i] = uint16(zipf.Uint64())
		f := uint8(rng.Intn(len(loadTenants)))
		if rng.Float64() >= loadReadFrac {
			f |= 2
		}
		o.flags[i] = f
	}
}

// loadObjectives mirrors the load experiment's defaults: one latency SLO
// per tenant plus an aggregate one.
func loadObjectives() []slo.Objective {
	var objs []slo.Objective
	for _, t := range loadTenants {
		objs = append(objs, slo.Objective{Name: t, Tenant: t, Target: 0.999, LatencyPs: 400 * int64(sim.Microsecond)})
	}
	return append(objs, slo.Objective{Name: "all", Target: 0.99, LatencyPs: 800 * int64(sim.Microsecond)})
}

func (o *loadOp) run(e *env) opResult {
	r := opResult{name: o.name, attempted: len(o.at) + 1}
	if err := o.exec(e, &r); err != nil {
		r.err = fmt.Errorf("%s: %w", o.name, err)
		r.failed++
	}
	return r
}

func (o *loadOp) exec(e *env, r *opResult) error {
	a0 := e.allocated()
	t0 := time.Now()
	eng, err := slo.New(slo.Config{
		Objectives: loadObjectives(),
		Window:     window.Config{WindowPs: 10 * int64(sim.Millisecond), Buckets: 20},
	})
	if err != nil {
		return err
	}
	tel := telemetry.NewSink()
	tel.MaxEvents = -1
	tracer := reqtrace.New(tel, reqtrace.Config{TopK: 8})
	t := time.Now()
	s := ssd.New(ssd.Options{
		Arch: ssd.AssasinSb, Cores: loadCores,
		Telemetry: tel, Requests: tracer, OnAdvance: eng.Tick,
	})
	e.span("ssd.new", t)

	type tenantAcc struct {
		rate *window.Rate
		hist *window.Hist
	}
	tenants := append(loadTenants[:], batchTenant)
	accs := make(map[string]tenantAcc, len(tenants))
	for _, name := range tenants {
		accs[name] = tenantAcc{eng.Windows().Rate("tenant/" + name + "/req"), eng.Windows().Hist("tenant/" + name + "/latency")}
	}
	tracer.OnComplete = func(q *reqtrace.Request) {
		done := q.SubmitPs + q.LatencyPs
		eng.ObserveRequest(done, q.Tenant, q.Kind, q.LatencyPs, false)
		if acc, ok := accs[q.Tenant]; ok {
			acc.rate.Inc(done)
			acc.hist.Observe(done, q.LatencyPs)
		}
	}
	tracer.OnAbort = func(q *reqtrace.Request) {
		eng.ObserveRequest(q.SubmitPs, q.Tenant, q.Kind, 0, true)
	}

	t = time.Now()
	keyLPAs, err := s.InstallBytes(o.keyData)
	if err != nil {
		return err
	}
	scanLPAs, err := s.InstallBytes(o.scan)
	if err != nil {
		return err
	}
	e.counts["ftl/install_pages"] += float64(len(keyLPAs) + len(scanLPAs))
	e.span("ftl.install", t)
	t = time.Now()
	tasks, err := s.BuildTasks(ssd.KernelRun{
		Kernel: kernels.Scan{}, Inputs: [][]int{scanLPAs}, InputBytes: []int64{int64(len(o.scan))},
		RecordSize: 16, Cores: loadCores, OutKind: firmware.OutDiscard,
	})
	e.span("kernels.build", t)
	if err != nil {
		return err
	}

	ctl := nvme.New(s, nvme.DefaultConfig())
	var completed, cmdFailed int
	var lastDone sim.Time
	var cmdErr error
	var batchStart time.Time
	onDone := func(c nvme.IOCompletion) {
		if c.Err != nil {
			cmdFailed++
			if cmdErr == nil {
				cmdErr = c.Err
			}
			return
		}
		completed++
		if c.Done > lastDone {
			lastDone = c.Done
		}
		if completed%loadBatch == 0 {
			now := time.Now()
			r.units = append(r.units, now.Sub(batchStart))
			batchStart = now
		}
	}
	// Each arrival event submits its command at its scheduled instant and
	// schedules the next arrival, keeping the event heap O(1) in the
	// request count.
	var arrive func(i int)
	arrive = func(i int) {
		s.Sched.Events.Schedule(sim.Time(o.at[i]), func(now sim.Time) {
			eng.Tick(int64(now))
			f := o.flags[i]
			req := nvme.IORequest{LPA: keyLPAs[o.key[i]], SubmitAt: now, Tenant: loadTenants[f&1]}
			if f&2 == 0 {
				req.Op, req.Pages, req.Discard = nvme.OpRead, 1, true
			} else {
				req.Op, req.Pages, req.Data = nvme.OpWrite, 1, o.payload
			}
			ctl.Submit(req, onDone)
			if i+1 < len(o.at) {
				arrive(i + 1)
			}
		})
	}
	arrive(0)
	r.setup = time.Since(t0)

	t = time.Now()
	batchStart = t
	s.SetRequestLabel(nvme.OpSComp.String())
	s.SetRequestTenant(batchTenant)
	res, err := s.RunOffload(tasks, 0)
	if err == nil {
		// RunOffload keeps dispatching queued events once the scan is
		// done, so it serves the whole schedule; drain anything left as the
		// load experiment does.
		s.Sched.Events.Drain(0)
	}
	r.run = e.span("ssd.run_offload", t)
	e.allocBytes += e.allocated() - a0
	if err != nil {
		return err
	}

	if e.tel {
		e.harvest(s, tel)
	}
	e.counts["ssd/offloads"]++
	e.counts["nvme/commands"] += float64(completed + cmdFailed)
	e.counts["nvme/failed"] += float64(cmdFailed)
	e.counts["req/traced"] += float64(tracer.Count())
	e.addStats(res.CoreStats)
	t = time.Now()
	defer e.span("kernels.verify", t)
	r.insts = sumStats(res.CoreStats).Instructions
	r.pages = float64(res.InputBytes)/float64(pageSize) + float64(completed)
	r.reqs = int64(completed) + 1
	r.failed = len(o.at) - completed // failed or never completed

	endPs := int64(lastDone)
	eng.Tick(endPs)
	h := sha256.New()
	fmt.Fprintf(h, "end=%d completed=%d firing=%d scan=%s\n", endPs, completed, eng.Status(endPs).Firing(), offloadDigest(res))
	for _, name := range tenants {
		acc := accs[name]
		fmt.Fprintf(h, "%s %d %g\n", name, acc.rate.Total(), acc.hist.Cumulative().Percentile(0.99))
	}
	r.digest = hex.EncodeToString(h.Sum(nil)[:8])

	switch {
	case cmdErr != nil:
		return fmt.Errorf("%d commands failed, first: %w", cmdFailed, cmdErr)
	case completed+cmdFailed < len(o.at):
		return fmt.Errorf("%d of %d commands never completed", len(o.at)-completed-cmdFailed, len(o.at))
	}
	m := mixEntry{kernel: kernels.Scan{}, inputs: [][]byte{o.scan}, rec: 16}
	return m.verify(ssd.PartitionBytes(int64(len(o.scan)), loadCores, 16), ssd.AssasinSb, res)
}
