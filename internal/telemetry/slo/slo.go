// Package slo evaluates declarative service-level objectives over the
// request stream of a running simulation: per-tenant (and per-class)
// latency-threshold and availability targets, cumulative error-budget
// accounting, and multi-window burn-rate alert rules in the SRE-workbook
// style — a fast-burn rule that pages when the short-term burn rate is
// catastrophic, and a slow-burn rule that tickets on sustained budget
// consumption.
//
// The engine is fed from reqtrace completion events (ObserveRequest) and
// driven by the simulated clock: windows rotate and rules evaluate lazily
// at bucket boundaries of the underlying window.Windows, so alert
// transitions are a pure function of the request schedule — byte-identical
// for any worker count or wall-clock interleaving.
//
// Zero-cost contract: the nil *Engine is a valid disabled engine
// (Tick/ObserveRequest are nil-receiver no-ops), and the enabled
// request-completion path — match objectives, bump good/bad rates, observe
// the latency histogram — allocates nothing in steady state. Snapshots
// (Status) allocate and are meant for publication at evaluation
// boundaries, not per request.
package slo

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"assasin/internal/telemetry/window"
)

// Objective is one declarative SLO: over requests matched by (Tenant,
// Class), the fraction of good events must stay >= Target, where good
// means "completed, and within LatencyPs when a threshold is set".
type Objective struct {
	// Name identifies the objective in reports and alert series.
	Name string `json:"name"`
	// Tenant restricts matching to one tenant label ("" matches all).
	Tenant string `json:"tenant,omitempty"`
	// Class restricts matching to one request kind, e.g. "offload",
	// "io-read", "io-write" ("" matches all).
	Class string `json:"class,omitempty"`
	// Target is the objective as a good-fraction in (0, 1), e.g. 0.999.
	Target float64 `json:"target"`
	// LatencyPs, when > 0, is the good/bad latency threshold; 0 declares a
	// pure availability objective (only failed requests are bad).
	LatencyPs int64 `json:"latency_ps,omitempty"`
}

// budgetFrac is the allowed bad fraction (1 - Target).
func (o Objective) budgetFrac() float64 { return 1 - o.Target }

// Rule is one multi-window burn-rate alert rule: it fires when the burn
// rate — observed bad fraction divided by the budget fraction — exceeds
// Factor over BOTH the long and the short window. The long window makes
// the alert meaningful (sustained burn), the short window makes it reset
// quickly once the burn stops.
type Rule struct {
	// Name identifies the rule ("fast-burn", "slow-burn").
	Name string `json:"name"`
	// Severity is the routing hint: "page" or "ticket".
	Severity string `json:"severity"`
	// LongPs and ShortPs are the two evaluation windows (clamped to the
	// engine's window geometry: at least one bucket, at most the window).
	LongPs  int64 `json:"long_ps"`
	ShortPs int64 `json:"short_ps"`
	// Factor is the burn-rate threshold (e.g. 14.4: the budget of the full
	// window would be gone in 1/14.4 of it).
	Factor float64 `json:"factor"`
}

// DefaultRules returns the SRE-workbook-style pair scaled to a window
// span: a fast-burn page over (window/4, window/16) at factor 14.4 and a
// slow-burn ticket over (window, window/8) at factor 2.
func DefaultRules(windowPs int64) []Rule {
	return []Rule{
		{Name: "fast-burn", Severity: "page", LongPs: windowPs / 4, ShortPs: windowPs / 16, Factor: 14.4},
		{Name: "slow-burn", Severity: "ticket", LongPs: windowPs, ShortPs: windowPs / 8, Factor: 2},
	}
}

// Config parameterizes an Engine.
type Config struct {
	// Objectives are evaluated independently; order is preserved in Status.
	Objectives []Objective
	// Rules are the burn-rate alert rules applied to every objective (nil
	// selects DefaultRules over the window span).
	Rules []Rule
	// Window is the rolling-window geometry shared by every objective's
	// good/bad rates and latency histogram.
	Window window.Config
}

// alertState tracks one (objective, rule) pair across evaluations.
type alertState struct {
	rule        Rule
	firing      bool
	sincePs     int64
	transitions int64
	burnLong    float64
	burnShort   float64
}

// objState is one objective's live accounting.
type objState struct {
	obj    Objective
	good   *window.Rate
	bad    *window.Rate
	lat    *window.Hist
	alerts []alertState
}

// Engine evaluates a set of objectives over the request stream. The nil
// *Engine is valid and disabled. An Engine belongs to one simulation
// goroutine; concurrent readers get immutable Status snapshots.
type Engine struct {
	win    *window.Windows
	states []*objState
	evals  int64

	// OnEval, when non-nil, is called on the simulation goroutine after
	// each bucket-boundary evaluation with the boundary's simulated time —
	// the publication hook live serving uses (build a Status/Snapshot and
	// hand it to the obs collector).
	OnEval func(boundaryPs int64)
}

// New builds an engine. Objectives must carry a Target in (0, 1); invalid
// objectives are rejected.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives")
	}
	e := &Engine{win: window.New(cfg.Window)}
	rules := cfg.Rules
	if rules == nil {
		rules = DefaultRules(e.win.WindowPs())
	}
	for i := range rules {
		if rules[i].LongPs < e.win.BucketPs() {
			rules[i].LongPs = e.win.BucketPs()
		}
		if rules[i].ShortPs < e.win.BucketPs() {
			rules[i].ShortPs = e.win.BucketPs()
		}
		if rules[i].Factor <= 0 {
			return nil, fmt.Errorf("slo: rule %q needs a positive factor", rules[i].Name)
		}
	}
	for i, o := range cfg.Objectives {
		if o.Target <= 0 || o.Target >= 1 {
			return nil, fmt.Errorf("slo: objective %q target %v outside (0, 1)", o.Name, o.Target)
		}
		if o.Name == "" {
			return nil, fmt.Errorf("slo: objective %d has no name", i)
		}
		st := &objState{
			obj:  o,
			good: e.win.Rate(o.Name + "/good"),
			bad:  e.win.Rate(o.Name + "/bad"),
			lat:  e.win.Hist(o.Name + "/latency"),
		}
		for _, r := range rules {
			st.alerts = append(st.alerts, alertState{rule: r})
		}
		e.states = append(e.states, st)
	}
	e.win.OnRotate = e.evaluate
	return e, nil
}

// Tick advances the engine's simulated clock — rotating windows and
// evaluating rules at crossed bucket boundaries. It is
// sim.Scheduler.OnAdvance-compatible and nil-safe.
func (e *Engine) Tick(nowPs int64) {
	if e == nil {
		return
	}
	e.win.Advance(nowPs)
}

// ObserveRequest records one finished request at nowPs: every matching
// objective classifies it good or bad and feeds its rolling latency
// histogram. failed marks requests that never completed (aborts); they are
// bad under every matching objective. Allocation-free and nil-safe.
func (e *Engine) ObserveRequest(nowPs int64, tenant, class string, latencyPs int64, failed bool) {
	if e == nil {
		return
	}
	for _, st := range e.states {
		o := &st.obj
		if o.Tenant != "" && o.Tenant != tenant {
			continue
		}
		if o.Class != "" && o.Class != class {
			continue
		}
		if !failed {
			st.lat.Observe(nowPs, latencyPs)
		}
		if !failed && (o.LatencyPs == 0 || latencyPs <= o.LatencyPs) {
			st.good.Inc(nowPs)
		} else {
			st.bad.Inc(nowPs)
		}
	}
}

// burn computes the burn rate over the trailing closed buckets of the
// span: observed bad fraction divided by the objective's budget fraction.
// No traffic means no burn.
func (st *objState) burn(spanPs int64) float64 {
	g, b := st.good.LastClosed(spanPs), st.bad.LastClosed(spanPs)
	total := g + b
	if total == 0 {
		return 0
	}
	return (float64(b) / float64(total)) / st.obj.budgetFrac()
}

// evaluate runs every (objective, rule) pair at a bucket boundary.
// Transitions are recorded with the boundary time, so alert history is
// deterministic sim-time data.
func (e *Engine) evaluate(boundaryPs int64) {
	for _, st := range e.states {
		for i := range st.alerts {
			a := &st.alerts[i]
			a.burnLong = st.burn(a.rule.LongPs)
			a.burnShort = st.burn(a.rule.ShortPs)
			firing := a.burnLong >= a.rule.Factor && a.burnShort >= a.rule.Factor
			if firing && !a.firing {
				a.firing = true
				a.sincePs = boundaryPs
				a.transitions++
			} else if !firing && a.firing {
				a.firing = false
				a.sincePs = 0
			}
		}
	}
	e.evals++
	if e.OnEval != nil {
		e.OnEval(boundaryPs)
	}
}

// Evaluations returns how many bucket-boundary evaluations have run.
func (e *Engine) Evaluations() int64 {
	if e == nil {
		return 0
	}
	return e.evals
}

// Windows exposes the engine's window domain (for /live snapshots of the
// same rings the rules read). Nil on a nil engine.
func (e *Engine) Windows() *window.Windows {
	if e == nil {
		return nil
	}
	return e.win
}

// AlertStatus is one (objective, rule) pair in a Status.
type AlertStatus struct {
	Rule        string  `json:"rule"`
	Severity    string  `json:"severity"`
	LongPs      int64   `json:"long_ps"`
	ShortPs     int64   `json:"short_ps"`
	Factor      float64 `json:"factor"`
	BurnLong    float64 `json:"burn_long"`
	BurnShort   float64 `json:"burn_short"`
	Firing      bool    `json:"firing"`
	SincePs     int64   `json:"since_ps,omitempty"`
	Transitions int64   `json:"transitions"`
}

// ObjectiveStatus is one objective's full state in a Status.
type ObjectiveStatus struct {
	Objective
	// Cumulative accounting since the run started.
	Good            int64   `json:"good"`
	Bad             int64   `json:"bad"`
	BadFrac         float64 `json:"bad_frac"`
	BudgetConsumed  float64 `json:"budget_consumed"`
	BudgetRemaining float64 `json:"budget_remaining"`
	// Rolling-window view.
	WindowGood int64         `json:"window_good"`
	WindowBad  int64         `json:"window_bad"`
	P50Ps      float64       `json:"p50_ps"`
	P95Ps      float64       `json:"p95_ps"`
	P99Ps      float64       `json:"p99_ps"`
	Alerts     []AlertStatus `json:"alerts"`
}

// Status is an immutable, JSON-serializable snapshot of the engine
// (served at /slo).
type Status struct {
	NowPs      int64             `json:"now_ps"`
	WindowPs   int64             `json:"window_ps"`
	BucketPs   int64             `json:"bucket_ps"`
	Objectives []ObjectiveStatus `json:"objectives"`
}

// Status advances to nowPs and snapshots every objective, in configuration
// order. Call from the simulation goroutine; hand the result to concurrent
// readers. Returns nil on a nil engine.
func (e *Engine) Status(nowPs int64) *Status {
	if e == nil {
		return nil
	}
	e.win.Advance(nowPs)
	out := &Status{NowPs: nowPs, WindowPs: e.win.WindowPs(), BucketPs: e.win.BucketPs()}
	for _, st := range e.states {
		good, bad := st.good.Total(), st.bad.Total()
		os := ObjectiveStatus{
			Objective:  st.obj,
			Good:       good,
			Bad:        bad,
			WindowGood: st.good.WindowCount(),
			WindowBad:  st.bad.WindowCount(),
		}
		if total := good + bad; total > 0 {
			os.BadFrac = float64(bad) / float64(total)
			os.BudgetConsumed = os.BadFrac / st.obj.budgetFrac()
		}
		os.BudgetRemaining = 1 - os.BudgetConsumed
		win := st.lat.Window()
		os.P50Ps = win.Percentile(0.50)
		os.P95Ps = win.Percentile(0.95)
		os.P99Ps = win.Percentile(0.99)
		for i := range st.alerts {
			a := &st.alerts[i]
			os.Alerts = append(os.Alerts, AlertStatus{
				Rule:        a.rule.Name,
				Severity:    a.rule.Severity,
				LongPs:      a.rule.LongPs,
				ShortPs:     a.rule.ShortPs,
				Factor:      a.rule.Factor,
				BurnLong:    a.burnLong,
				BurnShort:   a.burnShort,
				Firing:      a.firing,
				SincePs:     a.sincePs,
				Transitions: a.transitions,
			})
		}
		out.Objectives = append(out.Objectives, os)
	}
	return out
}

// Firing counts the currently-firing alerts in a status (any severity).
func (s *Status) Firing() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, o := range s.Objectives {
		for _, a := range o.Alerts {
			if a.Firing {
				n++
			}
		}
	}
	return n
}

// ParseSpec parses a -slo flag value into objectives. Entries are
// comma-separated "tenant:target[:latency]" triples: tenant is a tenant
// label or "all"/"*" for every tenant; target is a percentage like 99.9;
// latency is an optional good/bad threshold with a unit suffix (ps, ns,
// us, ms, s), omitted for availability-only objectives. Examples:
//
//	gold:99.9:200us          gold requests complete within 200 µs 99.9% of the time
//	all:99:1ms,silver:99.5   one aggregate latency SLO plus a silver availability SLO
func ParseSpec(spec string) ([]Objective, error) {
	var out []Objective
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("slo: entry %q is not tenant:target[:latency]", entry)
		}
		tenant := strings.TrimSpace(parts[0])
		if tenant == "all" || tenant == "*" {
			tenant = ""
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(parts[1]), "%"), 64)
		if err != nil || pct <= 0 || pct >= 100 {
			return nil, fmt.Errorf("slo: entry %q needs a target percentage in (0, 100)", entry)
		}
		o := Objective{Tenant: tenant, Target: pct / 100}
		if len(parts) == 3 {
			lat, err := ParseDuration(strings.TrimSpace(parts[2]))
			if err != nil {
				return nil, fmt.Errorf("slo: entry %q: %w", entry, err)
			}
			o.LatencyPs = lat
		}
		name := tenant
		if name == "" {
			name = "all"
		}
		o.Name = fmt.Sprintf("%s-p%s", name, strings.TrimSuffix(strings.TrimSpace(parts[1]), "%"))
		out = append(out, o)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo: empty spec")
	}
	return out, nil
}

// ParseDuration parses a simulated duration with a unit suffix (ps, ns,
// us, ms, s) into picoseconds. NaN, infinities, negative values and values
// beyond math.MaxInt64 picoseconds (about 106 days) are rejected.
func ParseDuration(s string) (int64, error) {
	units := []struct {
		suffix string
		mult   float64
	}{
		{"ps", 1}, {"ns", 1e3}, {"us", 1e6}, {"ms", 1e9}, {"s", 1e12},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			// "ms" also ends in "s": try longest suffixes first by checking
			// that what remains parses as a number.
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				continue
			}
			ps := v * u.mult
			switch {
			case math.IsNaN(ps) || math.IsInf(ps, 0):
				return 0, fmt.Errorf("duration %q is not finite", s)
			case ps < 0:
				return 0, fmt.Errorf("negative duration %q", s)
			case ps >= math.MaxInt64: // float64(MaxInt64) rounds up to 2^63
				return 0, fmt.Errorf("duration %q exceeds %d ps", s, int64(math.MaxInt64))
			}
			return int64(ps), nil
		}
	}
	return 0, fmt.Errorf("duration %q needs a unit suffix (ps, ns, us, ms, s)", s)
}
