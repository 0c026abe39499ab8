// Package runpool fans independent simulation runs across a bounded pool of
// worker goroutines. The evaluation (Section VI) is dominated by embarrassingly
// parallel sweeps — kernels × configurations, queries × configurations, core
// counts, skew points — where every run builds its own SSD instance and shares
// nothing mutable with its siblings. The pool exploits that: jobs are indexed,
// results land in index order, and a pool of one worker degenerates to exactly
// the sequential loop, so parallel output is byte-identical to sequential
// output as long as each job seeds any randomness from the base seed and its
// own index rather than drawing from shared RNG state, whose consumption
// order would depend on scheduling.
//
// What is safe to fan out through this package is a whole simulation run (an
// ssd.SSD with its scheduler, flash array, DRAM and cores). What is not safe
// is anything inside one sim.Scheduler: processes co-simulated by a scheduler
// share an event queue and must stay on one goroutine.
package runpool

import (
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// logger, when set, receives worker-claim events at Debug level. It is an
// atomic pointer so parallel workers can read it without a lock.
var logger atomic.Pointer[slog.Logger]

// SetLogger installs a logger for pool diagnostics (nil disables). Handlers
// must be goroutine-safe; slog's built-in handlers are.
func SetLogger(l *slog.Logger) { logger.Store(l) }

// DefaultWorkers returns the default pool width: one worker per schedulable
// CPU, the widest fan-out that does not oversubscribe the host.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers bounds the pool width to [1, n].
func clampWorkers(workers, n int) int {
	if workers <= 1 {
		return 1
	}
	if workers > n {
		return n
	}
	return workers
}

// Run executes jobs 0..n-1 on up to workers goroutines. With workers <= 1 it
// is exactly the sequential loop: jobs run in index order and the first error
// stops the remainder. With more workers, jobs are claimed in index order by
// an atomic cursor; after a failure, unstarted jobs are skipped, and the
// lowest-index error among the jobs that ran is returned, so a run that fails
// deterministically under the sequential path reports the same error in
// parallel.
func Run(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if l := logger.Load(); l != nil {
					l.Debug("runpool: job claimed", "worker", w, "job", i, "jobs", n)
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over 0..n-1 like Run and returns the results in index order —
// the parallel result is the same slice the sequential loop would build.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Run(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SequentialOverride resolves the effective pool width when one or more
// enabled features require sequential simulation (the telemetry sink is
// single-goroutine). It returns the width to use and, when the request had
// to be overridden, a warning naming both the forcing flags and the flag
// being overridden. requested <= 1 needs no override and yields no warning.
func SequentialOverride(requested int, forcedBy ...string) (workers int, warning string) {
	if len(forcedBy) == 0 || requested <= 1 {
		return requested, ""
	}
	return 1, fmt.Sprintf("%s forces sequential simulation: overriding -parallel %d to -parallel 1",
		strings.Join(forcedBy, ", "), requested)
}
