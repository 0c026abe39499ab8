// Package obs makes a running simulation observable from outside its
// goroutine: a goroutine-safe Collector accumulates per-run attribution
// reports and metrics snapshots published at run boundaries, and an HTTP
// handler serves them live — Prometheus text-format /metrics, pprof,
// health/readiness probes, and the attribution reports — while an
// experiment fan-out is still executing.
//
// The telemetry.Sink itself stays single-goroutine (the simulator's
// zero-cost contract); the bridge to concurrent scrapers is publication:
// the simulation goroutine hands the Collector immutable snapshots at run
// boundaries, and scrapers only ever read the latest published snapshot.
// Scraping therefore cannot perturb simulation results, and nothing is
// rendered (no Prometheus text, no JSON) unless an endpoint is actually
// hit.
package obs

import (
	"fmt"
	"sync"

	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/slo"
	"assasin/internal/telemetry/window"
)

// Collector accumulates completed runs, their reports and the latest
// metrics snapshot. All methods are goroutine-safe, and a nil *Collector is
// a valid disabled collector: every method is a cheap no-op, so call sites
// can wire it unconditionally.
type Collector struct {
	mu        sync.Mutex
	ready     bool
	snap      telemetry.MetricsSnapshot
	reports   []*analyze.RunReport
	runs      []*analyze.Run // runs[i] is the run reports[i] attributes
	ids       map[string]int // run id -> index into reports and runs
	buildInfo []promLabel
	sloStatus *slo.Status
	liveSnap  *window.Snapshot
}

// NewCollector returns an empty enabled collector.
func NewCollector() *Collector {
	return &Collector{ids: make(map[string]int)}
}

// ObserveRun attributes one completed run and stores the run and its
// report under a sequential id ("run-0001", ...). The run's metrics
// snapshot covers that run alone and feeds only its report: /metrics serves
// the root sink's snapshot, which the run's owner publishes with
// PublishMetrics. The run's optional artifacts are served from the stored
// run: the timeline (/runs/{id}/timeline, compared at
// /runs/{id}/compare/{other}), the request summary (/runs/{id}/requests
// and /runs/{id}/requests/{rid}) and the guest profile (/runs/{id}/profile
// and /runs/{id}/profile.pb.gz). Returns the stored report (nil on a nil
// collector).
func (c *Collector) ObserveRun(run analyze.Run) *analyze.RunReport {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := analyze.Attribute(run)
	rep.ID = runID(len(c.reports) + 1)
	c.ids[rep.ID] = len(c.reports)
	c.reports = append(c.reports, rep)
	c.runs = append(c.runs, &run)
	return rep
}

// Run returns the run stored under id, or nil. The run is immutable once
// stored.
func (c *Collector) Run(id string) *analyze.Run {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.ids[id]; ok {
		return c.runs[i]
	}
	return nil
}

// runID formats the sequential run id: at least four digits, never
// truncated, so ids stay unique past run 9999.
func runID(n int) string { return fmt.Sprintf("run-%04d", n) }

// PublishMetrics replaces the latest metrics snapshot. The snapshot's maps
// must not be mutated after publishing (telemetry.Sink.Metrics builds
// fresh maps per call, satisfying this by construction).
func (c *Collector) PublishMetrics(snap telemetry.MetricsSnapshot) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.snap = snap
	c.mu.Unlock()
}

// Snapshot returns the latest published metrics snapshot. The returned
// maps are shared with the publisher but immutable once published.
func (c *Collector) Snapshot() telemetry.MetricsSnapshot {
	if c == nil {
		return telemetry.MetricsSnapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snap
}

// PublishSLO replaces the latest SLO status (served at /slo and exported
// as assasin_slo_* series). The status must be immutable once published;
// slo.Engine.Status builds a fresh value per call, satisfying this by
// construction. The simulation goroutine publishes at burn-evaluation
// boundaries, so scrapers watch objectives and alerts move in sim time.
func (c *Collector) PublishSLO(st *slo.Status) {
	if c == nil || st == nil {
		return
	}
	c.mu.Lock()
	c.sloStatus = st
	c.mu.Unlock()
}

// SLOStatus returns the latest published SLO status, or nil when no load
// run has published one yet.
func (c *Collector) SLOStatus() *slo.Status {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sloStatus
}

// PublishLive replaces the latest live window snapshot (served at /live):
// rolling per-tenant request rates and latency percentiles over the
// sliding window. Same immutability contract as PublishSLO.
func (c *Collector) PublishLive(snap *window.Snapshot) {
	if c == nil || snap == nil {
		return
	}
	c.mu.Lock()
	c.liveSnap = snap
	c.mu.Unlock()
}

// LiveSnapshot returns the latest published live window snapshot, or nil.
func (c *Collector) LiveSnapshot() *window.Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveSnap
}

// Reports returns the completed-run reports in completion order. The slice
// is a copy; the reports themselves are immutable once stored.
func (c *Collector) Reports() []*analyze.RunReport {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*analyze.RunReport, len(c.reports))
	copy(out, c.reports)
	return out
}

// Report returns the report stored under id, or nil.
func (c *Collector) Report(id string) *analyze.RunReport {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.ids[id]; ok {
		return c.reports[i]
	}
	return nil
}

// RunsCompleted returns how many runs have been observed.
func (c *Collector) RunsCompleted() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.reports)
}

// MarkReady flips the /readyz probe to ready (call once the experiment
// loop is about to start).
func (c *Collector) MarkReady() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ready = true
	c.mu.Unlock()
}

// Ready reports whether MarkReady was called.
func (c *Collector) Ready() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ready
}
