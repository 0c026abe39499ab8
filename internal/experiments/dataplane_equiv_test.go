package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"assasin/internal/firmware"
	"assasin/internal/runpool"
	"assasin/internal/sim"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
)

// TestDataPlaneCoalescedMatchesPerPage is the data-plane equivalence soak:
// for every Table II workload on every architecture, an offload run with the
// coalesced delivery train (the default) must produce an ssd.Result that is
// byte-identical — duration, stall decomposition, collected output bytes,
// final registers — to the per-page oracle, where every page delivery is its
// own scheduler event. Any drift in the coalescing conditions (train
// inlining past a contention boundary, a suppressed pump that was not
// provably dead, a clock not advanced through AdvanceTo) shows up here as a
// Duration or CoreStats mismatch.
func TestDataPlaneCoalescedMatchesPerPage(t *testing.T) {
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
		if err := compareDataPlanes(j.entry, j.arch, 0); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDataPlaneEquivalenceWithCoreQuantum repeats the check for a run
// quantum above the scheduler default: coarser core interleaving shifts
// which deliveries land inside a single dispatch round, so the train's
// Horizon guard gets exercised at different boundaries. Results must still
// match exactly.
func TestDataPlaneEquivalenceWithCoreQuantum(t *testing.T) {
	entries := equivEntries()
	for _, e := range []equivEntry{entries[0], entries[3]} { // Statistics, Filter
		for _, arch := range []ssd.Arch{ssd.Baseline, ssd.AssasinSb} {
			if err := compareDataPlanes(e, arch, 4*sim.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func compareDataPlanes(e equivEntry, arch ssd.Arch, quantum sim.Time) error {
	run := func(plane firmware.PlaneMode) (*ssd.Result, error) {
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
			plane:       plane,
			coreQuantum: quantum,
		})
		if err != nil {
			return nil, fmt.Errorf("%s on %v (%v): %w", e.name, arch, plane, err)
		}
		return r.res, nil
	}
	perPage, err := run(firmware.PlanePerPage)
	if err != nil {
		return err
	}
	coalesced, err := run(firmware.PlaneCoalesced)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(perPage, coalesced) {
		return fmt.Errorf("%s on %v (quantum %v): coalesced result diverges from per-page oracle:\nper-page:  duration %v stats %+v\ncoalesced: duration %v stats %+v",
			e.name, arch, quantum, perPage.Duration, perPage.CoreStats, coalesced.Duration, coalesced.CoreStats)
	}
	return nil
}

// TestDataPlaneTelemetryIdentical runs one instrumented workload under both
// plane modes and demands byte-identical telemetry: the same trace events in
// the same order with the same payloads, and identical metrics JSON. The
// coalesced train replays per-page telemetry from inside the bulk callback,
// so this pins the emission order and the sim-time stamps, not just the
// aggregate result.
func TestDataPlaneTelemetryIdentical(t *testing.T) {
	e := equivEntries()[0] // Statistics: exercises flash, crossbar, and stream buffers
	run := func(plane firmware.PlaneMode) *telemetry.Sink {
		tel := telemetry.NewSink()
		_, err := runStandalone(Config{Telemetry: tel}, runOpts{
			arch:       ssd.AssasinSb,
			cores:      e.cores,
			kernel:     e.kernel,
			inputs:     e.inputs,
			recordSize: e.rec,
			outKind:    e.out,
			plane:      plane,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tel
	}
	per := run(firmware.PlanePerPage)
	coa := run(firmware.PlaneCoalesced)

	pe, ce := per.Events(), coa.Events()
	if len(pe) != len(ce) {
		t.Fatalf("event count diverges: per-page %d, coalesced %d", len(pe), len(ce))
	}
	for i := range pe {
		pj, err := json.Marshal(pe[i])
		if err != nil {
			t.Fatal(err)
		}
		cj, err := json.Marshal(ce[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pj, cj) {
			t.Fatalf("event %d diverges:\nper-page:  %s\ncoalesced: %s", i, pj, cj)
		}
	}

	var pm, cm bytes.Buffer
	if err := per.WriteMetricsJSON(&pm); err != nil {
		t.Fatal(err)
	}
	if err := coa.WriteMetricsJSON(&cm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pm.Bytes(), cm.Bytes()) {
		t.Fatalf("metrics JSON diverges between plane modes")
	}
}
