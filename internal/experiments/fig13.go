package experiments

import (
	"fmt"
	"strings"

	"assasin/internal/cpu"
	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/runpool"
	"assasin/internal/sim"
	"assasin/internal/ssd"
)

// standaloneKernels returns the Fig. 13 workloads in the paper's order of
// increasing compute intensity, with their run parameters.
func standaloneKernels(cfg Config) []runSpec {
	kb := int(cfg.KernelMB * (1 << 20))
	aes := int(cfg.AESKB * 1024)
	return []runSpec{
		{
			name: "Stat", kernel: kernels.Stat{}, recordSize: 4,
			inputs: 1, bytesPer: kb, outKind: firmware.OutDiscard,
		},
		{
			name: "RAID4", kernel: kernels.RAID4{K: 4}, recordSize: 4,
			inputs: 4, bytesPer: kb / 4, outKind: firmware.OutToFlash,
		},
		{
			name: "RAID6", kernel: kernels.RAID6{K: 4}, recordSize: 4,
			inputs: 4, bytesPer: kb / 8, outKind: firmware.OutToFlash,
		},
		{
			name: "AES", kernel: kernels.AES{}, recordSize: 16,
			inputs: 1, bytesPer: aes, outKind: firmware.OutToFlash,
		},
	}
}

// runSpec describes one standalone workload.
type runSpec struct {
	name       string
	kernel     kernels.Kernel
	recordSize int
	inputs     int
	bytesPer   int
	outKind    firmware.OutKind
}

func (s runSpec) buildInputs() [][]byte {
	var ins [][]byte
	for i := 0; i < s.inputs; i++ {
		ins = append(ins, randData(s.bytesPer, int64(1000+i)))
	}
	return ins
}

// Fig13Row is one kernel's throughput across the Table IV configurations.
type Fig13Row struct {
	Kernel     string
	Throughput map[ssd.Arch]float64 // bytes/second of input stream
}

// Fig13 measures standalone function-offload throughput on all six
// configurations (pre-timing-adjustment clocks, as in the paper's Fig. 13).
func Fig13(cfg Config) ([]Fig13Row, error) {
	return standaloneSweep(cfg, false)
}

// Fig21 is Fig. 13 re-run with the circuit-derived clock adjustments of
// Fig. 20 (AssasinSb at 1.124 GHz, 2-cycle scratchpads).
func Fig21(cfg Config) ([]Fig13Row, error) {
	return standaloneSweep(cfg, true)
}

func standaloneSweep(cfg Config, adjusted bool) ([]Fig13Row, error) {
	specs := standaloneKernels(cfg)
	archs := ssd.AllArchs()
	// Inputs are built once per kernel and shared read-only by every
	// configuration's run.
	inputs := make([][][]byte, len(specs))
	for i, spec := range specs {
		inputs[i] = spec.buildInputs()
	}
	// One job per (kernel, configuration); each run builds its own SSD.
	tputs, err := runpool.Map(cfg.workers(), len(specs)*len(archs), func(j int) (float64, error) {
		spec, arch := specs[j/len(archs)], archs[j%len(archs)]
		o := cfg.instrument(runOpts{
			arch:       arch,
			adjusted:   adjusted,
			cores:      cfg.Cores,
			kernel:     spec.kernel,
			inputs:     inputs[j/len(archs)],
			recordSize: spec.recordSize,
			outKind:    spec.outKind,
			collect:    cfg.Verify && spec.outKind != firmware.OutDiscard,
		})
		r, err := runStandalone(o)
		if err != nil {
			return 0, fmt.Errorf("%s on %v: %w", spec.name, arch, err)
		}
		if cfg.Verify {
			if err := verifyOutputs(o, r); err != nil {
				return 0, err
			}
		}
		return r.throughput(), nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig13Row, len(specs))
	for i, spec := range specs {
		rows[i] = Fig13Row{Kernel: spec.name, Throughput: map[ssd.Arch]float64{}}
		for a, arch := range archs {
			rows[i].Throughput[arch] = tputs[i*len(archs)+a]
		}
	}
	return rows, nil
}

// FormatFig13 renders the rows as the figure's bar-chart data.
func FormatFig13(title string, rows []Fig13Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — offloaded standalone function throughput (GB/s)\n", title)
	fmt.Fprintf(&b, "%-8s", "Kernel")
	for _, a := range ssd.AllArchs() {
		fmt.Fprintf(&b, "%12s", a)
	}
	fmt.Fprintf(&b, "%14s\n", "Sb/Baseline")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s", r.Kernel)
		for _, a := range ssd.AllArchs() {
			fmt.Fprintf(&b, "%12s", gbps(r.Throughput[a]))
		}
		sp := r.Throughput[ssd.AssasinSb] / r.Throughput[ssd.Baseline]
		fmt.Fprintf(&b, "%13.2fx\n", sp)
	}
	return b.String()
}

// Fig5Result is the Baseline cycle decomposition of the motivating Filter
// example (Section III-A).
type Fig5Result struct {
	Throughput    float64 // per-engine B/s
	BusyFrac      float64
	MemStallFrac  float64
	WaitStallFrac float64
	ExecStallFrac float64
}

// Fig5 reproduces the motivating example: the Filter function on one
// Baseline compute engine, with its cycle decomposition showing the memory
// wall (the paper reports 0.63 GB/s with memory stalls dominating).
func Fig5(cfg Config) (*Fig5Result, error) {
	data := lineitemTuples(int(cfg.KernelMB * (1 << 20)))
	k := filterKernel()
	o := cfg.instrument(runOpts{
		arch:       ssd.Baseline,
		cores:      1,
		kernel:     k,
		inputs:     [][]byte{data},
		recordSize: filterTupleSize,
		outKind:    firmware.OutToHost,
		collect:    cfg.Verify,
	})
	r, err := runStandalone(o)
	if err != nil {
		return nil, err
	}
	if cfg.Verify {
		if err := verifyOutputs(o, r); err != nil {
			return nil, err
		}
	}
	st := r.res.CoreStats[0]
	total := float64(st.TotalTime())
	return &Fig5Result{
		Throughput:    float64(len(data)) / r.res.Duration.Seconds(),
		BusyFrac:      float64(st.BusyTime) / total,
		MemStallFrac:  float64(st.StallTime[cpu.StallMem]) / total,
		WaitStallFrac: float64(st.StallTime[cpu.StallStreamWait]) / total,
		ExecStallFrac: float64(st.StallTime[cpu.StallExec]) / total,
	}, nil
}

// FormatFig5 renders the decomposition.
func FormatFig5(r *Fig5Result) string {
	return fmt.Sprintf(`Fig 5 — Filter on one Baseline engine (cycle decomposition)
  throughput        %s GB/s
  busy              %5.1f%%
  memory stalls     %5.1f%%
  data-wait stalls  %5.1f%%
  exec stalls       %5.1f%%
`, gbps(r.Throughput), 100*r.BusyFrac, 100*r.MemStallFrac, 100*r.WaitStallFrac, 100*r.ExecStallFrac)
}

// filterTupleSize is the binary lineitem tuple size of the motivating
// example (quantity, price, discount, tax, shipdate + padding).
const filterTupleSize = 32

// filterKernel is the Q6-like predicate of the motivating example.
func filterKernel() kernels.Filter {
	return kernels.Filter{
		TupleSize: filterTupleSize,
		Preds: []kernels.FieldPred{
			{Offset: 16, Lo: 19940101, Hi: 19941231}, // shipdate window
			{Offset: 0, Lo: 0, Hi: 23},               // quantity < 24
		},
	}
}

// lineitemTuples serializes a binary lineitem-like array: 32-byte tuples
// with quantity@0, price@4, discount@8, tax@12, shipdate@16.
func lineitemTuples(totalBytes int) []byte {
	n := totalBytes / filterTupleSize
	data := make([]byte, n*filterTupleSize)
	rng := newSplitMix(42)
	for i := 0; i < n; i++ {
		base := i * filterTupleSize
		putU32(data[base+0:], uint32(1+rng.next()%50))
		putU32(data[base+4:], uint32(90000+rng.next()%100000))
		putU32(data[base+8:], uint32(rng.next()%11)*100)
		putU32(data[base+12:], uint32(rng.next()%9)*100)
		y := 1992 + rng.next()%7
		m := 1 + rng.next()%12
		d := 1 + rng.next()%28
		putU32(data[base+16:], uint32(y*10000+m*100+d))
		putU32(data[base+20:], uint32(i))
	}
	return data
}

type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() int {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int((z ^ (z >> 31)) & 0x7FFFFFFF)
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// SpeedupSummary condenses a sweep into per-arch geomean speedup over
// Baseline — the input to the Fig. 22 efficiency computation.
func SpeedupSummary(rows []Fig13Row) map[ssd.Arch]float64 {
	out := map[ssd.Arch]float64{}
	for _, a := range ssd.AllArchs() {
		var ratios []float64
		for _, r := range rows {
			base := r.Throughput[ssd.Baseline]
			if base > 0 && r.Throughput[a] > 0 {
				ratios = append(ratios, r.Throughput[a]/base)
			}
		}
		out[a] = geoMean(ratios)
	}
	return out
}

var _ = sim.Time(0)
