package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"assasin/internal/firmware"
	"assasin/internal/host"
	"assasin/internal/kernels"
	"assasin/internal/runpool"
	"assasin/internal/ssd"
	"assasin/internal/tpch"
)

// Fig14Row is one query's PSF-pipeline throughput across configurations.
type Fig14Row struct {
	Query       int
	Table       string
	InputBytes  int64
	Selectivity float64 // output rows / input rows
	Throughput  map[ssd.Arch]float64
}

// psfDataset caches per-table CSVs and row offsets for a dataset.
type psfDataset struct {
	ds      *tpch.Dataset
	csv     map[string][]byte
	offsets map[string][]int64
}

func newPSFDataset(sf float64) *psfDataset {
	ds := tpch.Generate(sf)
	p := &psfDataset{ds: ds, csv: map[string][]byte{}, offsets: map[string][]int64{}}
	for name, rel := range ds.Tables() {
		c := tpch.CSVBytes(rel)
		p.csv[name] = c
		p.offsets[name] = tpch.RowOffsets(c)
	}
	return p
}

// runQueryPSF offloads one query's Parse/Select/Filter pipeline on one
// architecture, observed as cfg asks, and returns the run plus the
// concatenated output bytes.
func (p *psfDataset) runQueryPSF(cfg Config, q *tpch.QuerySpec, arch ssd.Arch, cores int, adjusted, collect bool) (*ssd.Result, []byte, error) {
	csv := p.csv[q.Table]
	offs := p.offsets[q.Table]
	kernel := fmt.Sprintf("Q%d", q.ID)
	obs := Observe(cfg, kernel+"/"+arch.String(), kernel)
	s := ssd.New(obs.Options(ssd.Options{Arch: arch, Cores: cores, TimingAdjusted: adjusted}))
	lpas, err := s.InstallBytes(csv)
	if err != nil {
		return nil, nil, err
	}
	// Row-aligned task decomposition: split at line boundaries closest to
	// equal byte shares.
	nRows := len(offs) - 1
	if cores > nRows {
		cores = nRows
	}
	var tasks []ssd.TaskSpec
	params := s.BuildParamsFor()
	prog, err := q.PSF.Build(params)
	if err != nil {
		return nil, nil, err
	}
	for c := 0; c < cores; c++ {
		startRow := nRows * c / cores
		endRow := nRows * (c + 1) / cores
		r := ssd.ByteRange{Start: offs[startRow], End: offs[endRow]}
		if r.Len() == 0 {
			continue
		}
		spec := s.SpecForRange(lpas, r)
		tasks = append(tasks, ssd.TaskSpec{
			Program: prog,
			Inputs:  []firmware.StreamSpec{spec},
			Outputs: []firmware.OutTarget{{Kind: firmware.OutToHost, Collect: collect}},
			Regs:    kernels.Args([]int64{spec.Length}),
		})
	}
	res, err := s.RunOffload(tasks, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("Q%d on %v: %w", q.ID, arch, err)
	}
	obs.Finish(s, res)
	var out []byte
	if collect {
		for _, outs := range res.Outputs {
			out = append(out, outs[0]...)
		}
	}
	return res, out, nil
}

// Fig14 measures the offloaded PSF database pipeline per TPC-H query across
// all configurations (the per-query bars of the paper's Fig. 14).
func Fig14(cfg Config) ([]Fig14Row, error) {
	archs := ssd.AllArchs()
	p := newPSFDataset(cfg.TPCHScale)
	queries := tpch.Queries()
	// Per-query reference outputs are computed up front (host-side, cheap)
	// so the fan-out jobs only read them.
	rows := make([]Fig14Row, len(queries))
	refs := make([][]byte, len(queries))
	for i, q := range queries {
		csv := p.csv[q.Table]
		rows[i] = Fig14Row{
			Query:      q.ID,
			Table:      q.Table,
			InputBytes: int64(len(csv)),
			Throughput: map[ssd.Arch]float64{},
		}
		if cfg.Verify {
			refOut, err := q.PSF.Reference([][]byte{csv})
			if err != nil {
				return nil, err
			}
			refs[i] = refOut[0]
			rowsIn := len(p.offsets[q.Table]) - 1
			if rowsIn > 0 {
				rows[i].Selectivity = float64(len(refs[i])/(4*len(q.PSF.Project))) / float64(rowsIn)
			}
		}
	}
	// One job per (query, configuration); the dataset is read-only here on.
	tputs, err := runpool.Map(cfg.workers(), len(queries)*len(archs), func(j int) (float64, error) {
		q, arch := queries[j/len(archs)], archs[j%len(archs)]
		res, out, err := p.runQueryPSF(cfg, q, arch, cfg.Cores, false, cfg.Verify)
		if err != nil {
			return 0, err
		}
		if cfg.Verify && !bytes.Equal(out, refs[j/len(archs)]) {
			return 0, fmt.Errorf("Q%d on %v: PSF output mismatch (%d vs %d bytes)", q.ID, arch, len(out), len(refs[j/len(archs)]))
		}
		return res.Throughput(), nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		for a, arch := range archs {
			rows[i].Throughput[arch] = tputs[i*len(archs)+a]
		}
	}
	return rows, nil
}

// FormatFig14 renders per-query throughput plus the geomean speedups the
// paper quotes (UDP ≈1.3×, AssasinSb 1.5-1.8×).
func FormatFig14(title string, rows []Fig14Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — offloaded Parse/Select/Filter pipeline throughput (GB/s)\n", title)
	fmt.Fprintf(&b, "%-6s%-10s", "Query", "Table")
	for _, a := range ssd.AllArchs() {
		fmt.Fprintf(&b, "%12s", a)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%-5d%-10s", r.Query, r.Table)
		for _, a := range ssd.AllArchs() {
			fmt.Fprintf(&b, "%12s", gbps(r.Throughput[a]))
		}
		b.WriteString("\n")
	}
	sp := SpeedupSummaryFig14(rows)
	b.WriteString("GeoMean speedup over Baseline:")
	for _, a := range ssd.AllArchs() {
		fmt.Fprintf(&b, "  %s=%.2fx", a, sp[a])
	}
	b.WriteString("\n")
	return b.String()
}

// SpeedupSummaryFig14 returns geomean speedups over Baseline.
func SpeedupSummaryFig14(rows []Fig14Row) map[ssd.Arch]float64 {
	out := map[ssd.Arch]float64{}
	for _, a := range ssd.AllArchs() {
		var ratios []float64
		for _, r := range rows {
			if b := r.Throughput[ssd.Baseline]; b > 0 && r.Throughput[a] > 0 {
				ratios = append(ratios, r.Throughput[a]/b)
			}
		}
		out[a] = geoMean(ratios)
	}
	return out
}

// Fig15Row is one query's end-to-end latency decomposition.
type Fig15Row struct {
	Query    int
	PureCPU  host.QueryLatency
	Baseline host.QueryLatency
	Assasin  host.QueryLatency
}

// Fig15 stacks SSD, interface, and host time for all 22 queries, comparing
// the no-offload pure-host path (disaggregated storage), the Baseline
// computational SSD, and AssasinSb — the paper's end-to-end Fig. 15.
func Fig15(cfg Config) ([]Fig15Row, error) {
	p := newPSFDataset(cfg.TPCHScale)
	hm := host.New(host.DefaultConfig())
	// The end-to-end comparison always uses the paper's full 8-engine SSDs.
	cores := cfg.Cores
	if cores < 8 {
		cores = 8
	}
	queries := tpch.Queries()
	// One job per query; each runs its own pair of SSDs and a local Exec.
	return runpool.Map(cfg.workers(), len(queries), func(i int) (Fig15Row, error) {
		q := queries[i]
		csv := p.csv[q.Table]
		scan := q.ScanRelation(p.ds)

		// Host body work is the same in all modes (measured once).
		body := tpch.NewExec(p.ds)
		q.Body(body, scan)
		resultBytes := int64(scan.NumRows() * 4 * len(q.PSF.Project))

		// PureCPU: full table over the interface, host parses + scans.
		pureWork := body.Work
		pure := tpch.NewExec(p.ds)
		pure.ChargeParse(int64(len(csv)))
		pureWork.Add(pure.Work)
		// Host-side predicate evaluation over all rows (the Filter stage).
		pureWork.ScanUnits += 4 * float64(len(p.offsets[q.Table])-1)

		// Offloaded paths: PSF runs in-SSD; only results cross the bus.
		resBase, _, err := p.runQueryPSF(cfg, q, ssd.Baseline, cores, true, false)
		if err != nil {
			return Fig15Row{}, err
		}
		resSb, _, err := p.runQueryPSF(cfg, q, ssd.AssasinSb, cores, true, false)
		if err != nil {
			return Fig15Row{}, err
		}

		return Fig15Row{
			Query:    q.ID,
			PureCPU:  hm.PureCPU(int64(len(csv)), pureWork),
			Baseline: hm.Offloaded(resBase.Duration, resultBytes, body.Work),
			Assasin:  hm.Offloaded(resSb.Duration, resultBytes, body.Work),
		}, nil
	})
}

// FormatFig15 renders latencies and the headline geomean ratios (paper:
// Baseline ≈1.9× over PureCPU; AssasinSb a further 1.1-1.5×, geomean 1.3×).
func FormatFig15(rows []Fig15Row) string {
	var b strings.Builder
	b.WriteString("Fig 15 — end-to-end TPC-H latency (ms): SSD + interface + host\n")
	fmt.Fprintf(&b, "%-6s%12s%12s%12s%14s%12s\n", "Query", "PureCPU", "Baseline", "AssasinSb", "Base/Pure", "Sb/Base")
	var basePure, sbBase []float64
	for _, r := range rows {
		bp := float64(r.PureCPU.Total()) / float64(r.Baseline.Total())
		sb := float64(r.Baseline.Total()) / float64(r.Assasin.Total())
		basePure = append(basePure, bp)
		sbBase = append(sbBase, sb)
		fmt.Fprintf(&b, "Q%-5d%12s%12s%12s%13.2fx%11.2fx\n",
			r.Query, msOf(r.PureCPU.Total()), msOf(r.Baseline.Total()), msOf(r.Assasin.Total()), bp, sb)
	}
	fmt.Fprintf(&b, "GeoMean: Baseline over PureCPU %.2fx; AssasinSb over Baseline %.2fx\n",
		geoMean(basePure), geoMean(sbBase))
	return b.String()
}
