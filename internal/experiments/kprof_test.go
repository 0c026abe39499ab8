package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/runpool"
	"assasin/internal/ssd"
	"assasin/internal/telemetry/kprof"
)

// TestKProfReconciliationSoak is the guest-profiler exactness pin: for
// every Table II workload on every architecture, a kprof-instrumented run
// must satisfy
//
//  1. the profile's per-pc totals sum exactly to the attribution engine's
//     class times (core-busy, exec-stall, stream-refill-wait,
//     out-full-wait, cache-dram-wait) and instruction count, and
//  2. the compiled engine's profile is byte-identical to the
//     precise engine's after export (JSON and pprof both), proving the
//     bulk-dispatch difference arrays spread exactly like per-instruction
//     stepping.
func TestKProfReconciliationSoak(t *testing.T) {
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
		return struct{}{}, compareKProf(j.entry, j.arch)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func compareKProf(e equivEntry, arch ssd.Arch) error {
	run := func(mode cpu.ExecMode) (RunRecord, error) {
		rec := e.rec
		cores := e.cores
		if rec == 0 {
			rec = len(e.inputs[0])
			cores = 1
		}
		var out RunRecord
		_, err := runStandalone(runOpts{
			arch:       arch,
			cores:      cores,
			kernel:     e.kernel,
			inputs:     e.inputs,
			recordSize: rec,
			outKind:    e.out,
			exec:       mode,
			kprof:      true,
			onRunDone:  func(r RunRecord) { out = r },
		})
		if err != nil {
			return out, fmt.Errorf("%s on %v (%v): %w", e.name, arch, mode, err)
		}
		if out.Profile == nil {
			return out, fmt.Errorf("%s on %v (%v): no profile delivered", e.name, arch, mode)
		}
		return out, nil
	}

	precise, err := run(cpu.ExecPrecise)
	if err != nil {
		return err
	}
	if err := checkProfileTotals(e.name, arch, precise); err != nil {
		return err
	}
	refJS, refPB, err := exportProfile(precise.Profile)
	if err != nil {
		return err
	}
	got, err := run(cpu.ExecCompiled)
	if err != nil {
		return err
	}
	if err := checkProfileTotals(e.name, arch, got); err != nil {
		return fmt.Errorf("compiled: %w", err)
	}
	js, pb, err := exportProfile(got.Profile)
	if err != nil {
		return err
	}
	if !bytes.Equal(js, refJS) {
		return fmt.Errorf("%s on %v: compiled profile JSON diverges from precise:\nprecise: %s\ncompiled: %s",
			e.name, arch, refJS, js)
	}
	if !bytes.Equal(pb, refPB) {
		return fmt.Errorf("%s on %v: compiled pprof bytes diverge from precise", e.name, arch)
	}
	return nil
}

// checkProfileTotals demands exact agreement between the profile's summed
// columns and the record's attribution-class times.
func checkProfileTotals(name string, arch ssd.Arch, rec RunRecord) error {
	insts, busy, exec, stream, outFull, mem := rec.Profile.Totals()
	attr := rec.AttributionRun()
	var wantInsts int64
	for _, st := range rec.CoreStats {
		wantInsts += st.Instructions
	}
	checks := []struct {
		what      string
		got, want int64
	}{
		{"instructions", insts, wantInsts},
		{"busy", busy, attr.BusyPs},
		{"exec-stall", exec, attr.ExecStallPs},
		{"stream-refill-wait", stream, attr.StreamRefillWaitPs},
		{"out-full-wait", outFull, attr.OutFullWaitPs},
		{"cache-dram-wait", mem, attr.CacheDRAMWaitPs},
	}
	for _, c := range checks {
		if c.got != c.want {
			return fmt.Errorf("%s on %v: profile %s %d != attribution %d",
				name, arch, c.what, c.got, c.want)
		}
	}
	return nil
}

func exportProfile(p *kprof.Profile) ([]byte, []byte, error) {
	js, err := json.Marshal(p)
	if err != nil {
		return nil, nil, err
	}
	pb, err := p.Pprof()
	if err != nil {
		return nil, nil, err
	}
	return js, pb, nil
}
