package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/nvme"
	"assasin/internal/runpool"
	"assasin/internal/sim"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/reqtrace"
	"assasin/internal/telemetry/slo"
	"assasin/internal/telemetry/window"
)

// LoadConfig parameterizes the open-loop load experiment: a Poisson arrival
// process with Zipf key skew drives conventional reads and writes through
// the unmodified nvme path (optionally alongside a scan offload) while the
// SLO engine aggregates per-tenant latency objectives over sliding windows.
type LoadConfig struct {
	// Requests is the conventional-command count per drive.
	Requests int `json:"requests"`
	// RatePerSec is the mean Poisson arrival rate in simulated requests per
	// second. Keep it below the flash array's page service rate — the
	// generator is open-loop, so overload grows queues without bound.
	RatePerSec float64 `json:"rate_per_sec"`
	// Tenants are the IO tenant labels; arrivals are assigned uniformly at
	// random (deterministically, from the drive's seed).
	Tenants []string `json:"tenants"`
	// ReadFraction is the probability an arrival is a read (the rest are
	// single-page writes).
	ReadFraction float64 `json:"read_fraction"`
	// PagesPerIO is the page count per read command.
	PagesPerIO int `json:"pages_per_io"`
	// Keys is the distinct-LPA key-space size; ZipfS/ZipfV shape the skew
	// (rand.Zipf: s > 1, v >= 1).
	Keys  int     `json:"keys"`
	ZipfS float64 `json:"zipf_s"`
	ZipfV float64 `json:"zipf_v"`
	// Drives is how many independent drives run the workload (fanned out
	// over Config.Workers; results are byte-identical for any worker count).
	Drives int `json:"drives"`
	// Seed derives each drive's private PRNG stream.
	Seed int64 `json:"seed"`
	// OffloadMB, when > 0, runs a concurrent scan offload of this input size
	// on every drive, traced under OffloadTenant — the Section V-A mixed
	// workload under sustained IO.
	OffloadMB     float64 `json:"offload_mb"`
	OffloadTenant string  `json:"offload_tenant"`
	// Window is the sliding-window geometry shared by the SLO engine and
	// the per-tenant live metrics.
	Window window.Config `json:"window"`
	// Objectives (nil selects defaultLoadObjectives over Tenants) and Rules
	// (nil selects slo.DefaultRules) configure the engine.
	Objectives []slo.Objective `json:"objectives,omitempty"`
	Rules      []slo.Rule      `json:"rules,omitempty"`
	// OnEval, when non-nil, receives a fresh SLO status and live window
	// snapshot at every burn-evaluation boundary — the live-serving
	// publication hook. It runs on the drive's simulation goroutine: with
	// Drives > 1 and Workers > 1 it must be goroutine-safe.
	OnEval func(drive int, st *slo.Status, live *window.Snapshot) `json:"-"`
}

// DefaultLoad is the benchmark-scale open-loop workload: 2 drives × 60k
// requests (120k total) over two tenants at 250k req/s simulated, one scan
// offload per drive, 10 ms window split into 20 buckets.
func DefaultLoad() LoadConfig {
	return LoadConfig{
		Requests:      60_000,
		RatePerSec:    2.5e5,
		Tenants:       []string{"gold", "silver"},
		ReadFraction:  0.99,
		PagesPerIO:    1,
		Keys:          1024,
		ZipfS:         1.2,
		ZipfV:         8,
		Drives:        2,
		Seed:          1,
		OffloadMB:     1,
		OffloadTenant: "batch",
		Window:        window.Config{WindowPs: 10 * int64(sim.Millisecond), Buckets: 20},
	}
}

// QuickLoad is small enough for unit tests.
func QuickLoad() LoadConfig {
	lc := DefaultLoad()
	lc.Requests = 2_000
	lc.Drives = 2
	lc.OffloadMB = 0.125
	lc.Window = window.Config{WindowPs: 5 * int64(sim.Millisecond), Buckets: 10}
	return lc
}

// withDefaults resolves zero fields.
func (lc LoadConfig) withDefaults() LoadConfig {
	d := DefaultLoad()
	if lc.Requests <= 0 {
		lc.Requests = d.Requests
	}
	if lc.RatePerSec <= 0 {
		lc.RatePerSec = d.RatePerSec
	}
	if len(lc.Tenants) == 0 {
		lc.Tenants = d.Tenants
	}
	if lc.ReadFraction <= 0 || lc.ReadFraction > 1 {
		lc.ReadFraction = d.ReadFraction
	}
	if lc.PagesPerIO <= 0 {
		lc.PagesPerIO = d.PagesPerIO
	}
	if lc.Keys <= lc.PagesPerIO {
		lc.Keys = d.Keys
	}
	if lc.ZipfS <= 1 {
		lc.ZipfS = d.ZipfS
	}
	if lc.ZipfV < 1 {
		lc.ZipfV = d.ZipfV
	}
	if lc.Drives <= 0 {
		lc.Drives = 1
	}
	if lc.Seed == 0 {
		lc.Seed = d.Seed
	}
	if lc.OffloadTenant == "" {
		lc.OffloadTenant = d.OffloadTenant
	}
	return lc
}

// ParseLoadSpec overlays semicolon-separated key=value pairs from a -load
// flag onto a base configuration:
//
//	requests=100000;rate=3e5;tenants=gold,silver,bronze;read=0.95
//
// Keys: requests, rate (req/s), tenants (comma-separated), read (fraction),
// pages, keys, zipfs, zipfv, drives, seed, offloadmb, offloadtenant,
// window (duration: 10ms, 1s, ...), buckets. Unknown keys are errors so
// typos fail fast.
func ParseLoadSpec(spec string, base LoadConfig) (LoadConfig, error) {
	lc := base
	for _, pair := range strings.Split(spec, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return lc, fmt.Errorf("load spec %q: want key=value", pair)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "requests":
			lc.Requests, err = strconv.Atoi(val)
		case "rate":
			lc.RatePerSec, err = parseFinite(val)
		case "tenants":
			lc.Tenants = nil
			for _, t := range strings.Split(val, ",") {
				if t = strings.TrimSpace(t); t != "" {
					lc.Tenants = append(lc.Tenants, t)
				}
			}
		case "read":
			lc.ReadFraction, err = parseFinite(val)
		case "pages":
			lc.PagesPerIO, err = strconv.Atoi(val)
		case "keys":
			lc.Keys, err = strconv.Atoi(val)
		case "zipfs":
			lc.ZipfS, err = parseFinite(val)
		case "zipfv":
			lc.ZipfV, err = parseFinite(val)
		case "drives":
			lc.Drives, err = strconv.Atoi(val)
		case "seed":
			lc.Seed, err = strconv.ParseInt(val, 10, 64)
		case "offloadmb":
			lc.OffloadMB, err = parseFinite(val)
		case "offloadtenant":
			lc.OffloadTenant = val
		case "window":
			lc.Window.WindowPs, err = slo.ParseDuration(val)
		case "buckets":
			lc.Window.Buckets, err = strconv.Atoi(val)
		default:
			return lc, fmt.Errorf("load spec: unknown key %q", key)
		}
		if err != nil {
			return lc, fmt.Errorf("load spec %q: %v", pair, err)
		}
	}
	return lc, nil
}

// parseFinite parses a float and rejects NaN and infinities, which would
// slip past withDefaults' range checks (every comparison with NaN is false).
func parseFinite(val string) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%s is not finite", val)
	}
	return v, err
}

// defaultLoadObjectives builds one latency SLO per tenant plus an aggregate
// availability-and-latency SLO over everything.
func defaultLoadObjectives(tenants []string) []slo.Objective {
	var objs []slo.Objective
	for _, t := range tenants {
		objs = append(objs, slo.Objective{
			Name: t, Tenant: t, Target: 0.999, LatencyPs: 400 * int64(sim.Microsecond),
		})
	}
	objs = append(objs, slo.Objective{
		Name: "all", Target: 0.99, LatencyPs: 800 * int64(sim.Microsecond),
	})
	return objs
}

// LoadTenantRow is one tenant's sustained-rate and latency digest on one
// drive at the end of the run.
type LoadTenantRow struct {
	Drive       int     `json:"drive"`
	Tenant      string  `json:"tenant"`
	Requests    int64   `json:"requests"`
	PerSecond   float64 `json:"per_second"`
	WindowP50Ps float64 `json:"window_p50_ps"`
	WindowP95Ps float64 `json:"window_p95_ps"`
	WindowP99Ps float64 `json:"window_p99_ps"`
	TotalP99Ps  float64 `json:"total_p99_ps"`
	MaxPs       int64   `json:"max_ps"`
}

// LoadDrive is one drive's end-of-run state.
type LoadDrive struct {
	Drive      int              `json:"drive"`
	DurationPs int64            `json:"duration_ps"`
	Completed  int64            `json:"completed"`
	Status     *slo.Status      `json:"slo"`
	Live       *window.Snapshot `json:"live"`
	// TracerCount/TracerP99Ps are the reqtrace cumulative view ("req/
	// latency_ps" on the drive's sink) — the reconciliation reference for
	// the rolling histograms.
	TracerCount int64   `json:"tracer_count"`
	TracerP99Ps float64 `json:"tracer_p99_ps"`
}

// LoadResult is the full experiment artifact (SLO_load.json).
type LoadResult struct {
	Config  LoadConfig      `json:"config"`
	Drives  []LoadDrive     `json:"drives"`
	Tenants []LoadTenantRow `json:"tenants"`
	Firing  int             `json:"firing_alerts"`
}

// tenantAcc is the per-tenant live accounting registered on the engine's
// window domain (visible in /live snapshots as tenant/<name>/...).
type tenantAcc struct {
	tenant string
	rate   *window.Rate
	hist   *window.Hist
}

// RunLoad drives the open-loop workload over lc.Drives independent drives
// (fanned out over cfg.Workers) and returns the merged result. Every drive
// is one observed run ("load/drive<i>") with its own sink, tracer, PRNG and
// SLO engine, so the result is byte-identical for any Workers setting.
func RunLoad(cfg Config, lc LoadConfig) (*LoadResult, error) {
	lc = lc.withDefaults()
	objectives := lc.Objectives
	if objectives == nil {
		objectives = defaultLoadObjectives(lc.Tenants)
	}
	// The SLO engine reads each drive's req/latency_ps histogram, so every
	// drive is observed into a sink.
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewSink()
		cfg.Telemetry.MaxEvents = -1
	}
	type driveOut struct {
		drive   LoadDrive
		tenants []LoadTenantRow
	}
	outs, err := runpool.Map(cfg.workers(), lc.Drives, func(di int) (driveOut, error) {
		eng, err := slo.New(slo.Config{Objectives: objectives, Rules: lc.Rules, Window: lc.Window})
		if err != nil {
			return driveOut{}, err
		}
		obs := Observe(cfg, fmt.Sprintf("load/drive%d", di), "load")
		opt := obs.Options(ssd.Options{Arch: ssd.AssasinSb, Cores: cfg.Cores, OnAdvance: eng.Tick})
		if opt.Requests == nil {
			// The SLO engine feeds on a tracer even when the record keeps no
			// requests (Config.Requests == 0).
			opt.Requests = reqtrace.New(opt.Telemetry, reqtrace.Config{})
		}
		s := ssd.New(opt)
		tel, tracer := opt.Telemetry, opt.Requests

		// Per-tenant live metrics share the engine's window domain so /live
		// serves them alongside the objective series.
		accs := make(map[string]*tenantAcc, len(lc.Tenants)+1)
		addAcc := func(t string) {
			if _, ok := accs[t]; ok {
				return
			}
			accs[t] = &tenantAcc{
				tenant: t,
				rate:   eng.Windows().Rate("tenant/" + t + "/req"),
				hist:   eng.Windows().Hist("tenant/" + t + "/latency"),
			}
		}
		for _, t := range lc.Tenants {
			addAcc(t)
		}
		if lc.OffloadMB > 0 {
			addAcc(lc.OffloadTenant)
		}
		tracer.OnComplete = func(r *reqtrace.Request) {
			done := r.SubmitPs + r.LatencyPs
			eng.ObserveRequest(done, r.Tenant, r.Kind, r.LatencyPs, false)
			if acc := accs[r.Tenant]; acc != nil {
				acc.rate.Inc(done)
				acc.hist.Observe(done, r.LatencyPs)
			}
		}
		tracer.OnAbort = func(r *reqtrace.Request) {
			eng.ObserveRequest(r.SubmitPs, r.Tenant, r.Kind, 0, true)
		}
		if lc.OnEval != nil {
			eng.OnEval = func(boundaryPs int64) {
				lc.OnEval(di, eng.Status(boundaryPs), eng.Windows().Snapshot(boundaryPs))
			}
		}

		// Key space: an installed region the Zipf keys index into.
		ps := s.Opt.Flash.PageSize
		keyData := randData(lc.Keys*ps, lc.Seed+int64(di)*7919)
		keyLPAs, err := s.InstallBytes(keyData)
		if err != nil {
			return driveOut{}, err
		}
		pageBuf := randData(ps+64, lc.Seed+int64(di)*7919+1)[:ps] // shared write payload

		ctl := nvme.New(s, nvme.DefaultConfig())
		rng := rand.New(rand.NewSource(lc.Seed + int64(di)*7919))
		zipf := rand.NewZipf(rng, lc.ZipfS, lc.ZipfV, uint64(lc.Keys-lc.PagesPerIO))
		interarrival := func() sim.Time {
			dt := -math.Log(1-rng.Float64()) * 1e12 / lc.RatePerSec
			if dt < 1 {
				dt = 1
			}
			return sim.Time(dt)
		}

		var maxDone sim.Time
		var completed int64
		var ioErr error
		onDone := func(c nvme.IOCompletion) {
			if c.Err != nil {
				if ioErr == nil {
					ioErr = c.Err
				}
				return
			}
			completed++
			if c.Done > maxDone {
				maxDone = c.Done
			}
		}
		// Self-perpetuating arrival chain: each arrival event submits one
		// command and schedules the next arrival, keeping the event heap
		// O(1) in the request count. The callback is bound once and counts
		// down left, so an arrival allocates no closure. All PRNG draws
		// happen in arrival order, so the schedule is a pure function of the
		// seed.
		left := lc.Requests
		var arrive func(now sim.Time)
		arrive = func(now sim.Time) {
			eng.Tick(int64(now))
			req := nvme.IORequest{
				LPA:      keyLPAs[int(zipf.Uint64())],
				SubmitAt: now,
				Tenant:   lc.Tenants[rng.Intn(len(lc.Tenants))],
			}
			if rng.Float64() < lc.ReadFraction {
				req.Op, req.Pages, req.Discard = nvme.OpRead, lc.PagesPerIO, true
			} else {
				req.Op, req.Pages, req.Data = nvme.OpWrite, 1, pageBuf
			}
			ctl.Submit(req, onDone)
			if left--; left > 0 {
				s.Sched.Events.Schedule(now+interarrival(), arrive)
			}
		}
		if left > 0 {
			s.Sched.Events.Schedule(interarrival(), arrive)
		}

		// Optional concurrent offload: RunOffload drives the shared event
		// queue, so arrivals interleave with the scan exactly as in MixedIO.
		if lc.OffloadMB > 0 {
			data := randData(int(lc.OffloadMB*(1<<20)), lc.Seed+int64(di)*7919+2)
			lpas, err := s.InstallBytes(data)
			if err != nil {
				return driveOut{}, err
			}
			tasks, err := s.BuildTasks(ssd.KernelRun{
				Kernel:     kernels.Scan{},
				Inputs:     [][]int{lpas},
				InputBytes: []int64{int64(len(data))},
				RecordSize: 16,
				Cores:      cfg.Cores,
				OutKind:    firmware.OutDiscard,
			})
			if err != nil {
				return driveOut{}, err
			}
			s.SetRequestLabel(nvme.OpSComp.String())
			s.SetRequestTenant(lc.OffloadTenant)
			if _, err := s.RunOffload(tasks, 0); err != nil {
				return driveOut{}, err
			}
		}
		// Drain the arrivals beyond the offload's end (or the whole run when
		// there is no offload).
		s.Sched.Events.Drain(0)
		if ioErr != nil {
			return driveOut{}, fmt.Errorf("load: drive %d: %w", di, ioErr)
		}
		if completed < int64(lc.Requests) {
			return driveOut{}, fmt.Errorf("load: drive %d completed %d of %d requests", di, completed, lc.Requests)
		}

		endPs := int64(maxDone)
		eng.Tick(endPs)
		out := driveOut{drive: LoadDrive{
			Drive:       di,
			DurationPs:  endPs,
			Completed:   completed,
			Status:      eng.Status(endPs),
			Live:        eng.Windows().Snapshot(endPs),
			TracerCount: tracer.Count(),
			TracerP99Ps: tel.Histogram("req", "latency_ps").Percentile(0.99),
		}}
		rowTenants := append([]string(nil), lc.Tenants...)
		if lc.OffloadMB > 0 && accs[lc.OffloadTenant] != nil && !contains(rowTenants, lc.OffloadTenant) {
			rowTenants = append(rowTenants, lc.OffloadTenant)
		}
		for _, t := range rowTenants {
			acc := accs[t]
			if acc == nil || acc.rate.Total() == 0 {
				continue
			}
			win := acc.hist.Window()
			row := LoadTenantRow{
				Drive:       di,
				Tenant:      t,
				Requests:    acc.rate.Total(),
				WindowP50Ps: win.Percentile(0.50),
				WindowP95Ps: win.Percentile(0.95),
				WindowP99Ps: win.Percentile(0.99),
				TotalP99Ps:  acc.hist.Cumulative().Percentile(0.99),
				MaxPs:       acc.hist.Cumulative().MaxValue(),
			}
			if endPs > 0 {
				row.PerSecond = float64(row.Requests) * 1e12 / float64(endPs)
			}
			out.tenants = append(out.tenants, row)
		}
		// The drive's record spans arrival to its last completion. Its work
		// is NVMe commands, which the tenant table reports, so it carries
		// no input bytes and its report shows no byte throughput.
		res := &ssd.Result{Duration: maxDone}
		for _, c := range s.Cores {
			res.CoreStats = append(res.CoreStats, c.Stats())
		}
		obs.Finish(s, res)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &LoadResult{Config: lc}
	for _, o := range outs {
		res.Drives = append(res.Drives, o.drive)
		res.Tenants = append(res.Tenants, o.tenants...)
		res.Firing += o.drive.Status.Firing()
	}
	return res, nil
}

// contains reports whether list holds s.
func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// fmtLoadPs renders picosecond latencies as microseconds for the table.
func fmtLoadPs(ps float64) string { return fmt.Sprintf("%.1f", ps/1e6) }

// FormatLoad renders the per-tenant sustained-rate and rolling-latency
// table plus the firing-alert summary.
func FormatLoad(r *LoadResult) string {
	var b strings.Builder
	b.WriteString("Load — open-loop Poisson arrivals, Zipf keys, per-tenant SLOs\n")
	fmt.Fprintf(&b, "%-6s %-10s %10s %12s %10s %10s %10s %10s\n",
		"drive", "tenant", "requests", "req/s", "winP50us", "winP95us", "winP99us", "cumP99us")
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "%-6d %-10s %10d %12.0f %10s %10s %10s %10s\n",
			t.Drive, t.Tenant, t.Requests, t.PerSecond,
			fmtLoadPs(t.WindowP50Ps), fmtLoadPs(t.WindowP95Ps),
			fmtLoadPs(t.WindowP99Ps), fmtLoadPs(t.TotalP99Ps))
	}
	for _, d := range r.Drives {
		fmt.Fprintf(&b, "drive %d: %d requests over %.3f ms simulated", d.Drive, d.Completed,
			float64(d.DurationPs)/1e9)
		if f := d.Status.Firing(); f > 0 {
			fmt.Fprintf(&b, ", %d alert(s) firing", f)
		}
		b.WriteString("\n")
	}
	return b.String()
}
