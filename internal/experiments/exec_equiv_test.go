package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/runpool"
	"assasin/internal/sim"
	"assasin/internal/ssd"
)

// equivEntry is one Table II workload at soak scale.
type equivEntry struct {
	name   string
	kernel kernels.Kernel
	inputs [][]byte
	rec    int
	out    firmware.OutKind
	cores  int
}

// equivEntries builds all Table II workloads at a reduced size.
func equivEntries() []equivEntry {
	const kb = 48 << 10
	mlp := kernels.MLP{}
	train := kernels.LinearTrain{}
	lz := kernels.LZDecompress{}
	return []equivEntry{
		{"Statistics", kernels.Stat{}, [][]byte{randData(kb, 41)}, 4, firmware.OutDiscard, 2},
		{"RAID6", kernels.RAID6{K: 4},
			[][]byte{randData(kb/4, 42), randData(kb/4, 43), randData(kb/4, 44), randData(kb/4, 45)}, 4, firmware.OutToFlash, 2},
		{"AES-128", kernels.AES{}, [][]byte{randData(16<<10, 46)}, 16, firmware.OutToFlash, 2},
		{"Filter", filterKernel(), [][]byte{lineitemTuples(kb)}, filterTupleSize, firmware.OutToHost, 2},
		{"Select", kernels.Select{TupleSize: 32, FieldOffsets: []int{0, 16}}, [][]byte{lineitemTuples(kb)}, 32, firmware.OutToHost, 2},
		{"PSF", kernels.PSF{NumFields: 16, Project: []int{0, 4, 10}}, [][]byte{psfCSV(kb, 47)}, 0, firmware.OutToHost, 1},
		{"Dedup", kernels.Dedup{}, [][]byte{dedupData(kb, 48)}, 512, firmware.OutToHost, 2},
		{"LZ", lz, [][]byte{lz.Compress(kernels.CompressibleData(kb, 21))}, 0, firmware.OutToHost, 1},
		{"MLP", kernels.MLP{}, [][]byte{mlpRecords(mlp, kb, 49)}, mlp.RecordSize(), firmware.OutToHost, 2},
		{"Degree", kernels.Degree{}, [][]byte{edgeList(kb, 50)}, kernels.EdgeSize, firmware.OutDiscard, 2},
		{"Replicate", kernels.Replicate{}, [][]byte{randData(kb, 51)}, 4, firmware.OutToFlash, 2},
		{"SGD", train, [][]byte{trainRecords(train, kb, 52)}, train.RecordSize(), firmware.OutDiscard, 2},
	}
}

// TestExecCompiledMatchesPrecise is the equivalence soak for the fast
// execution engine: for every Table II workload on every architecture,
// offload runs with ExecMode=Compiled must produce a byte-identical
// ssd.Result (duration, stall decomposition, collected output bytes, final
// registers) to ExecMode=Precise. Any timing or ordering divergence in the
// threaded-code translation shows up here as a Duration or CoreStats
// mismatch.
func TestExecCompiledMatchesPrecise(t *testing.T) {
	entries := equivEntries()
	archs := ssd.AllArchs()

	type job struct {
		entry equivEntry
		arch  ssd.Arch
	}
	var jobs []job
	for _, e := range entries {
		for _, a := range archs {
			jobs = append(jobs, job{e, a})
		}
	}
	_, err := runpool.Map(runpool.DefaultWorkers(), len(jobs), func(i int) (struct{}, error) {
		j := jobs[i]
		if err := compareExecModes(j.entry, j.arch, 0); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExecEquivalenceWithCoreQuantum repeats the check for a run quantum
// above the scheduler default: per-process quanta coarsen the interleaving
// identically in both modes, so results must still match exactly.
func TestExecEquivalenceWithCoreQuantum(t *testing.T) {
	entries := equivEntries()
	for _, e := range []equivEntry{entries[0], entries[3]} { // Statistics, Filter
		for _, arch := range []ssd.Arch{ssd.Baseline, ssd.AssasinSb} {
			if err := compareExecModes(e, arch, 4*sim.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func compareExecModes(e equivEntry, arch ssd.Arch, quantum sim.Time) error {
	run := func(mode cpu.ExecMode) (*ssd.Result, error) {
		rec := e.rec
		cores := e.cores
		if rec == 0 {
			rec = len(e.inputs[0]) // unsplittable stream: one core
			cores = 1
		}
		r, err := runStandalone(Config{}, runOpts{
			arch:        arch,
			cores:       cores,
			kernel:      e.kernel,
			inputs:      e.inputs,
			recordSize:  rec,
			outKind:     e.out,
			collect:     e.out != firmware.OutDiscard,
			exec:        mode,
			coreQuantum: quantum,
		})
		if err != nil {
			return nil, fmt.Errorf("%s on %v (%v): %w", e.name, arch, mode, err)
		}
		return r.res, nil
	}
	precise, err := run(cpu.ExecPrecise)
	if err != nil {
		return err
	}
	got, err := run(cpu.ExecCompiled)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(precise, got) {
		return fmt.Errorf("%s on %v (quantum %v): compiled result diverges from precise:\nprecise: duration %v stats %+v\ncompiled: duration %v stats %+v",
			e.name, arch, quantum, precise.Duration, precise.CoreStats, got.Duration, got.CoreStats)
	}
	return nil
}
