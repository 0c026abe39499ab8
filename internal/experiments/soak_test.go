package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/firmware"
	"assasin/internal/runpool"
	"assasin/internal/ssd"
)

// The oracle soaks: every fast path keeps one oracle, and these run each
// workload row on each architecture under the oracle and under the default
// and demand identical results.
//
//   - cpu.ExecPrecise steps one instruction at a time; the compiled engine
//     must match it byte for byte (duration, stall decomposition, collected
//     outputs, final registers).
//   - a kprof profile must sum exactly to the attribution classes, and the
//     compiled engine's profile must equal the precise engine's.

// soakJob is one workload row on one architecture at soak scale.
type soakJob struct {
	w    *workload
	arch ssd.Arch
	in   [][]byte
}

// soakJobs is every workload row on every architecture, each on two cores
// over 48 KiB of input (16 KiB for AES): the job list the soaks share.
func soakJobs() []soakJob {
	cfg := Config{AESKB: 16}
	var jobs []soakJob
	for i := range workloads {
		w := &workloads[i]
		in := w.inputs(cfg.streamBytes(w, 48<<10), w.seed)
		for _, a := range ssd.AllArchs() {
			jobs = append(jobs, soakJob{w, a, in})
		}
	}
	return jobs
}

// soak runs check on every job, in parallel.
func soak(t *testing.T, jobs []soakJob, check func(soakJob) error) {
	t.Helper()
	_, err := runpool.Map(runpool.DefaultWorkers(), len(jobs), func(i int) (struct{}, error) {
		return struct{}{}, check(jobs[i])
	})
	if err != nil {
		t.Fatal(err)
	}
}

// soakMode selects a soak run's engine and guest profiler.
type soakMode struct {
	exec  cpu.ExecMode
	kprof bool
}

// run executes the job once in mode m, collecting every output.
func (j soakJob) run(cfg Config, m soakMode) (*StandaloneRun, error) {
	o := j.w.opts(j.arch, 2, j.in)
	o.collect = o.outKind != firmware.OutDiscard
	o.exec = m.exec
	cfg.KProf = m.kprof
	r, err := runStandalone(cfg, o)
	if err != nil {
		return nil, fmt.Errorf("%s on %v (%+v): %w", j.w.kernel.Name(), j.arch, m, err)
	}
	return r, nil
}

// compareResults runs j under the oracle mode and under the default and
// demands byte-identical ssd.Results.
func compareResults(j soakJob, oracle soakMode) error {
	want, err := j.run(Config{}, oracle)
	if err != nil {
		return err
	}
	got, err := j.run(Config{}, soakMode{})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(want.Result, got.Result) {
		return fmt.Errorf("%s on %v: default result diverges from oracle %+v:\noracle:  duration %v stats %+v\ndefault: duration %v stats %+v",
			j.w.kernel.Name(), j.arch, oracle, want.Result.Duration, want.Result.CoreStats, got.Result.Duration, got.Result.CoreStats)
	}
	return nil
}

// TestExecCompiledMatchesPrecise catches any timing or ordering divergence
// in the threaded-code translation as a Duration or CoreStats mismatch.
func TestExecCompiledMatchesPrecise(t *testing.T) {
	soak(t, soakJobs(), func(j soakJob) error { return compareResults(j, soakMode{exec: cpu.ExecPrecise}) })
}

// TestKProfReconciliationSoak is the guest-profiler exactness pin: the
// profile's per-pc totals sum exactly to the attribution engine's class
// times and instruction count, and the compiled engine's profile exports
// (JSON and pprof) are byte-identical to the precise engine's, proving the
// bulk-dispatch difference arrays spread exactly like per-instruction
// stepping.
func TestKProfReconciliationSoak(t *testing.T) {
	soak(t, soakJobs(), func(j soakJob) error {
		var exports [2][2][]byte
		for i, mode := range []cpu.ExecMode{cpu.ExecPrecise, cpu.ExecCompiled} {
			r, err := j.run(Config{}, soakMode{exec: mode, kprof: true})
			if err != nil {
				return err
			}
			if err := checkProfileTotals(r); err != nil {
				return fmt.Errorf("%s on %v (%v): %w", j.w.kernel.Name(), j.arch, mode, err)
			}
			if exports[i][0], err = json.Marshal(r.Run.Profile); err != nil {
				return err
			}
			if exports[i][1], err = r.Run.Profile.Pprof(); err != nil {
				return err
			}
		}
		for f, format := range []string{"JSON", "pprof"} {
			if !bytes.Equal(exports[0][f], exports[1][f]) {
				return fmt.Errorf("%s on %v: compiled profile %s diverges from precise", j.w.kernel.Name(), j.arch, format)
			}
		}
		return nil
	})
}

// checkProfileTotals demands exact agreement between the profile's summed
// columns and the run's instruction count and attribution-class times.
func checkProfileTotals(r *StandaloneRun) error {
	attr := &r.Run
	if attr.Profile == nil {
		return fmt.Errorf("no profile delivered")
	}
	insts, classPs := attr.Profile.Totals()
	var wantInsts int64
	for _, st := range r.Result.CoreStats {
		wantInsts += st.Instructions
	}
	if insts != wantInsts {
		return fmt.Errorf("profile instructions %d != stats %d", insts, wantInsts)
	}
	for i, class := range cpu.ClassNames {
		if classPs[i] != attr.ClassPs[i] {
			return fmt.Errorf("profile %s %d != attribution %d", class, classPs[i], attr.ClassPs[i])
		}
	}
	return nil
}
