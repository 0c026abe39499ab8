package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// Options configures one benchmark invocation.
type Options struct {
	Workloads []string
	Seed      int64
	// Seconds is the timed budget per workload: timed repeats run until
	// another one would overrun it, and at least minRepeats run. With Trace
	// set, half the budget goes to timed repeats and the traced passes
	// follow.
	Seconds float64
	// Trace adds the profile and count passes and the per-layer metrics.
	Trace bool
	// Scale multiplies every input size; golden digests apply only at 1.
	Scale float64
	// Dir receives the traced run's CPU profiles and Chrome traces.
	Dir string
	// Stderr receives the children's diagnostics.
	Stderr io.Writer
}

const (
	minRepeats = 3
	maxRepeats = 25
	// profileHz is the traced run's CPU sampling rate. Linux checks CPU
	// timers once per scheduler tick, so a rate above the kernel's tick
	// rate (often 250 Hz) is silently capped; the ledger therefore takes
	// only shares from the samples and the CPU total from getrusage.
	profileHz = 250
	// profileRounds repeats the ops in the profile pass so each workload
	// collects at least 2,000 samples at a 250 Hz tick.
	profileRounds = 5
	// memProfileRate samples one allocation per 64 KiB in the traced run.
	memProfileRate = 64 << 10
	// childTimeout stops a child that hangs, so a hung simulation fails the
	// run instead of blocking it.
	childTimeout = 150 * time.Second
)

// Results is one invocation's result file.
type Results struct {
	Seed      int64             `json:"seed"`
	Env       Env               `json:"env"`
	Workloads []*WorkloadResult `json:"workloads"`
}

// Env records where the results were measured.
type Env struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Revision   string `json:"revision"`
}

// WorkloadResult is one workload's measurements.
type WorkloadResult struct {
	Name      string   `json:"name"`
	Repeats   int      `json:"repeats"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Metrics holds every EndToEnd and Reported metric.
	Metrics map[string]*Stat `json:"metrics"`
	// Layers holds the per-layer metrics of the traced run.
	Layers  map[string]float64 `json:"layers,omitempty"`
	Digests map[string]string  `json:"digests"`
}

// Run benchmarks each requested workload in turn.
func Run(opt Options) (*Results, error) {
	res := &Results{Seed: opt.Seed, Env: environment()}
	for _, name := range opt.Workloads {
		w, err := lookup(name)
		if err != nil {
			return nil, err
		}
		wr, err := runWorkload(w, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.Workloads = append(res.Workloads, wr)
	}
	return res, nil
}

func environment() Env {
	e := Env{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: childProcs(), Revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return e
	}
	dirty := ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			e.Revision = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "-dirty"
		}
	}
	e.Revision += dirty
	return e
}

// childProcs is the GOMAXPROCS of every child: the simulation is
// sequential, and a fixed cap keeps the garbage collector's parallelism the
// same on larger machines.
func childProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func runWorkload(w Workload, opt Options) (*WorkloadResult, error) {
	wr := &WorkloadResult{Name: w.Name}
	spec := childSpec{Workload: w.Name, Seed: opt.Seed, Scale: opt.Scale, Dir: opt.Dir, Pass: passTimed}
	budget := opt.Seconds
	if opt.Trace {
		budget /= 2
	}
	var timed []passResult
	var rss []float64
	start := time.Now()
	for n := 0; n < maxRepeats; n = len(timed) {
		if n >= minRepeats && time.Since(start).Seconds()*float64(n+1)/float64(n) > budget {
			break
		}
		c, mb, err := spawn(spec, opt.Stderr)
		if err != nil {
			return nil, err
		}
		wr.absorb(c)
		timed = append(timed, c.Passes...)
		rss = append(rss, mb)
	}
	wr.Repeats = len(timed)
	wr.summarize(timed, rss)
	if opt.Trace {
		spec.Pass = passProfile
		prof, _, err := spawn(spec, opt.Stderr)
		if err != nil {
			return nil, err
		}
		spec.Pass = passCount
		count, _, err := spawn(spec, opt.Stderr)
		if err != nil {
			return nil, err
		}
		wr.absorb(prof)
		wr.absorb(count)
		var profWall float64
		for _, p := range prof.Passes {
			profWall += p.WallS / float64(len(prof.Passes))
		}
		wr.Layers = layerValues(prof.Ledger, profWall, count.Passes[0].Counts, wr.Metrics["raw_wall_s"].Value)
	}
	wr.Metrics[failFrac.Name] = newStat(failFrac, []float64{wr.failFrac()})
	return wr, nil
}

// failFrac is the share of attempted ops that failed.
func (wr *WorkloadResult) failFrac() float64 {
	return ratio(float64(wr.Failed), float64(wr.Attempted))
}

// absorb adds a child's op outcomes. The simulation is deterministic, so
// every pass must reproduce the first pass's digests: a digest that
// differs, even with telemetry attached, is a failed op.
func (wr *WorkloadResult) absorb(c *childResult) {
	for _, p := range c.Passes {
		wr.Attempted += p.Attempted
		wr.Failed += p.Failed
		wr.Errors = append(wr.Errors, p.Errors...)
		if wr.Digests == nil {
			wr.Digests = p.Digests
		}
		for name, d := range p.Digests {
			if want := wr.Digests[name]; d != want {
				wr.Failed++
				wr.Errors = append(wr.Errors, fmt.Sprintf("%s: digest %s differs from the first pass's %s", name, d, want))
			}
		}
	}
	if len(wr.Errors) > maxErrors {
		wr.Errors = wr.Errors[:maxErrors]
	}
}

// summarize computes the end-to-end metrics from the timed repeats. Host
// times are divided by their repeat's host factor, except raw_wall_s. An op
// latency percentile's value is taken over every op of every repeat, since
// one repeat has only about ten ops beyond its p99; its samples are the
// per-repeat percentiles, which give the spread.
func (wr *WorkloadResult) summarize(timed []passResult, rss []float64) {
	per := func(f func(c *passResult) float64) []float64 {
		v := make([]float64, len(timed))
		for i := range timed {
			v[i] = f(&timed[i])
		}
		return v
	}
	opMs := make([][]float64, len(timed))
	var all []float64
	for i, c := range timed {
		for _, v := range c.OpMs {
			opMs[i] = append(opMs[i], v/c.HostFactor)
		}
		sort.Float64s(opMs[i])
		all = append(all, opMs[i]...)
	}
	sort.Float64s(all)
	opPct := func(q float64) []float64 {
		v := make([]float64, len(timed))
		for i := range timed {
			v[i] = percentile(opMs[i], q)
		}
		return v
	}
	wall := func(c *passResult) float64 { return c.WallS / c.HostFactor }
	samples := map[string][]float64{
		"wall_s":          per(wall),
		"setup_s":         per(func(c *passResult) float64 { return c.SetupS / c.HostFactor }),
		"sim_mips":        per(func(c *passResult) float64 { return ratio(float64(c.Insts)/1e6, wall(c)) }),
		"sim_pages_per_s": per(func(c *passResult) float64 { return ratio(c.Pages, wall(c)) }),
		"sim_req_per_s":   per(func(c *passResult) float64 { return ratio(float64(c.Reqs), wall(c)) }),
		"alloc_mb":        per(func(c *passResult) float64 { return c.AllocMB }),
		"op_ms_p50":       opPct(0.50),
		"op_ms_p99":       opPct(0.99),
		"raw_wall_s":      per(func(c *passResult) float64 { return c.WallS }),
		"host_factor":     per(func(c *passResult) float64 { return c.HostFactor }),
		"max_rss_mb":      rss,
	}
	wr.Metrics = make(map[string]*Stat, len(samples)+1)
	for _, m := range resultMetrics() {
		if m != failFrac {
			wr.Metrics[m.Name] = newStat(m, samples[m.Name])
		}
	}
	wr.Metrics["op_ms_p50"].Value = percentile(all, 0.50)
	wr.Metrics["op_ms_p99"].Value = percentile(all, 0.99)
}

// Pass kinds a child process runs.
const (
	passTimed   = "timed"
	passProfile = "profile"
	passCount   = "count"
)

// childEnv carries a child's pass description.
const childEnv = "ASSASIN_PERF_CHILD"

type childSpec struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Pass     string  `json:"pass"`
	Dir      string  `json:"dir"`
}

// childResult is what a child writes to its standard output: one pass
// over the ops, or the profile pass's rounds and their ledger.
type childResult struct {
	Passes []passResult `json:"passes"`
	Ledger *ledger      `json:"ledger,omitempty"`
}

// spawn runs one pass in a fresh child process and waits for it. It
// returns the pass's result and the child's peak resident set in MB.
func spawn(spec childSpec, stderr io.Writer) (*childResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(b), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s pass: %w", spec.Pass, err)
	}
	var c childResult
	if err := json.Unmarshal(out.Bytes(), &c); err != nil {
		return nil, 0, fmt.Errorf("%s pass output: %w", spec.Pass, err)
	}
	var rssMB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return &c, rssMB, nil
}

// IsChild reports whether this process was started by a parent run to
// execute one pass.
func IsChild() bool { return os.Getenv(childEnv) != "" }

// ChildMain runs the pass its parent described and writes the result to
// standard output as JSON. It returns the process exit code.
func ChildMain() int {
	var spec childSpec
	if err := json.Unmarshal([]byte(os.Getenv(childEnv)), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "assasin-perf child:", err)
		return 2
	}
	c, err := runChild(spec)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "assasin-perf child:", err)
		return 1
	}
	return 0
}

func runChild(spec childSpec) (*childResult, error) {
	if spec.Pass == passProfile {
		runtime.MemProfileRate = memProfileRate
	}
	w, err := lookup(spec.Workload)
	if err != nil {
		return nil, err
	}
	ops := w.prepare(spec.Seed, spec.Scale)
	golden := goldenDigests(spec.Seed, w.Name, spec.Scale)
	// Collect the generator's garbage now, so the timed calls neither pay
	// for it nor start from a heap that differs between repeats.
	runtime.GC()
	e := newEnv()
	switch spec.Pass {
	case passTimed:
		e.cal = newCalibrator()
		return &childResult{Passes: []passResult{runOps(ops, e, golden)}}, nil
	case passCount:
		e.tel = true
		return &childResult{Passes: []passResult{runOps(ops, e, golden)}}, nil
	case passProfile:
		return profilePass(w.Name, ops, e, golden, spec.Dir)
	}
	return nil, fmt.Errorf("unknown pass %q", spec.Pass)
}

// profilePass runs the ops profileRounds times under a CPU profile, an
// allocation profile and benchmark-side spans, and reduces them to a
// ledger. It writes the profile and the spans (Chrome trace JSON) into dir.
func profilePass(name string, ops []op, e *env, golden map[string]string, dir string) (*childResult, error) {
	e.spans = newSpanLog()
	var m0, m1 runtime.MemStats
	runtime.GC()
	before := memRecords()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	var buf bytes.Buffer
	// Setting the rate before StartCPUProfile keeps it: StartCPUProfile's
	// own 100 Hz request is refused with a warning on standard error.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	c := &childResult{}
	for r := 0; r < profileRounds; r++ {
		c.Passes = append(c.Passes, runOps(ops, e, golden))
	}
	pprof.StopCPUProfile()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	runtime.GC()

	c.Ledger = &ledger{
		Rounds:     profileRounds,
		CPUSeconds: (cpu1 - cpu0).Seconds(),
		GCCycles:   m1.NumGC - m0.NumGC,
		GCPauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
	}
	c.Ledger.addAllocs(before, memRecords(), memProfileRate)
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	c.Ledger.addCPU(prof)
	c.Ledger.SpanPct = e.spans.shares()

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "PROFILE_"+name+".pb.gz"), buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var trace bytes.Buffer
	if err := e.spans.writeChrome(&trace); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "TRACE_"+name+".json"), trace.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return c, nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
