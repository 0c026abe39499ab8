package experiments

import (
	"fmt"
	"strings"

	"assasin/internal/ssd"
)

// Table2Row is one computational-storage function from the workload study
// (Table II), measured on Baseline vs AssasinSb.
type Table2Row struct {
	Function  string
	StateDesc string
	Baseline  float64
	AssasinSb float64
	Cores     int
}

// Table2 runs the full implemented slice of the paper's workload survey —
// every Table II function built in this repository — as offloads on the
// Baseline and AssasinSb configurations. It is the executable version of
// the paper's claim that computational-storage functions are feasible as
// stream computing with bounded random-access state.
func Table2(cfg Config) ([]Table2Row, error) {
	// One job per (function, configuration); a row's inputs are built once
	// and shared read-only.
	archs := []ssd.Arch{ssd.Baseline, ssd.AssasinSb}
	var ws []*workload
	var jobs []runOpts
	for i := range workloads {
		w := &workloads[i]
		if w.name == "" {
			continue
		}
		ws = append(ws, w)
		in := w.inputs(cfg.streamBytes(w, int(cfg.KernelMB*(1<<20)/2)), w.seed)
		for _, a := range archs {
			jobs = append(jobs, w.opts(a, cfg.Cores, in))
		}
	}
	tputs, err := throughputs(cfg, jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(ws))
	for i, w := range ws {
		rows[i] = Table2Row{
			Function: w.name, StateDesc: w.state, Cores: jobs[i*len(archs)].cores,
			Baseline: tputs[i*len(archs)], AssasinSb: tputs[i*len(archs)+1],
		}
	}
	return rows, nil
}

// FormatTable2 renders the workload study.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table II (executable) — stream-computing implementations of storage functions (GB/s)\n")
	fmt.Fprintf(&b, "%-24s%-30s%7s%10s%11s%9s\n", "Function", "Function state", "Cores", "Baseline", "AssasinSb", "Speedup")
	for _, r := range rows {
		sp := 0.0
		if r.Baseline > 0 {
			sp = r.AssasinSb / r.Baseline
		}
		fmt.Fprintf(&b, "%-24s%-30s%7d%10s%11s%8.2fx\n", r.Function, r.StateDesc, r.Cores, gbps(r.Baseline), gbps(r.AssasinSb), sp)
	}
	return b.String()
}
