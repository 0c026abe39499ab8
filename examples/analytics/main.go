// Analytics: run TPC-H Q6 (revenue forecast) end-to-end three ways —
// pure host CPU (disaggregated storage), Baseline computational SSD, and
// ASSASIN — pushing the Parse/Select/Filter scan into the drive and
// finishing the aggregation on the host, as the paper's Fig. 15 does.
package main

import (
	"fmt"
	"log"

	"assasin/internal/firmware"
	"assasin/internal/host"
	"assasin/internal/kernels"
	"assasin/internal/sim"
	"assasin/internal/ssd"
	"assasin/internal/tpch"
)

func main() {
	ds := tpch.Generate(0.004)
	q, err := tpch.QueryByID(6)
	if err != nil {
		log.Fatal(err)
	}
	csv := tpch.CSVBytes(ds.Lineitem)
	offs := tpch.RowOffsets(csv)
	hm := host.New(host.DefaultConfig())

	// Host-side answer and body work (identical across modes).
	scan := q.ScanRelation(ds)
	body := tpch.NewExec(ds)
	result := q.Body(body, scan)
	fmt.Printf("TPC-H Q6 over %d lineitem rows (%.2f MB CSV)\n",
		ds.Lineitem.NumRows(), float64(len(csv))/(1<<20))
	fmt.Printf("  answer: revenue = $%.2f\n\n", float64(result.Rows[0][1])/100)

	// Pure CPU: ship the whole table, parse and filter on the host.
	pure := tpch.NewExec(ds)
	pure.ChargeParse(int64(len(csv)))
	pureWork := body.Work
	pureWork.Add(pure.Work)
	lat := hm.PureCPU(int64(len(csv)), pureWork)
	fmt.Printf("  %-22s %8.3f ms  (transfer %.3f + host %.3f)\n",
		"pure host CPU:", ms(lat.Total()), ms(lat.Transfer), ms(lat.Host))

	// Offloaded: PSF inside the SSD, aggregation on the host.
	resultBytes := int64(scan.NumRows() * 4 * len(q.PSF.Project))
	for _, arch := range []ssd.Arch{ssd.Baseline, ssd.AssasinSb} {
		ssdTime, err := runPSF(q, csv, offs, arch)
		if err != nil {
			log.Fatal(err)
		}
		l := hm.Offloaded(ssdTime, resultBytes, body.Work)
		fmt.Printf("  %-22s %8.3f ms  (SSD %.3f + transfer %.3f + host %.3f)\n",
			fmt.Sprintf("%v offload:", arch), ms(l.Total()), ms(l.SSD), ms(l.Transfer), ms(l.Host))
	}
}

func runPSF(q *tpch.QuerySpec, csv []byte, offs []int64, arch ssd.Arch) (sim.Time, error) {
	s := ssd.New(ssd.Options{Arch: arch, TimingAdjusted: true})
	lpas, err := s.InstallBytes(csv)
	if err != nil {
		return 0, err
	}
	prog, err := q.PSF.Build(s.BuildParamsFor())
	if err != nil {
		return 0, err
	}
	cores := len(s.Cores)
	nRows := len(offs) - 1
	var tasks []ssd.TaskSpec
	for c := 0; c < cores; c++ {
		r := ssd.ByteRange{Start: offs[nRows*c/cores], End: offs[nRows*(c+1)/cores]}
		if r.Len() == 0 {
			continue
		}
		spec := s.SpecForRange(lpas, r)
		tasks = append(tasks, ssd.TaskSpec{
			Program: prog,
			Inputs:  []firmware.StreamSpec{spec},
			Outputs: []firmware.OutTarget{{Kind: firmware.OutToHost}},
			Regs:    kernels.Args([]int64{spec.Length}),
		})
	}
	res, err := s.RunOffload(tasks, 0)
	if err != nil {
		return 0, err
	}
	return res.Duration, nil
}

func ms(t sim.Time) float64 { return t.Seconds() * 1e3 }
