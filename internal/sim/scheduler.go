package sim

import (
	"errors"
	"fmt"

	"assasin/internal/telemetry"
)

// RunState describes what a Process did when asked to run.
type RunState int

const (
	// StateReady means the process ran up to its limit and can keep going.
	StateReady RunState = iota
	// StateWaiting means the process is blocked until the returned wake
	// time (which may be MaxTime if another process must Wake it).
	StateWaiting
	// StateDone means the process has finished and should not run again.
	StateDone
)

// String implements fmt.Stringer for diagnostics.
func (s RunState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateWaiting:
		return "waiting"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("RunState(%d)", int(s))
	}
}

// Process is a simulated active entity (a compute core, the firmware
// processor) with its own local clock. The scheduler interleaves processes
// conservatively: the process with the earliest local time runs first, for
// at most one quantum, so accesses to shared resources arrive in
// near-global-time order.
type Process interface {
	// Name identifies the process in stats and error messages.
	Name() string
	// Run advances the process from its current local time until it blocks,
	// finishes, or its local time reaches limit. It returns the new local
	// time, the resulting state, and — for StateWaiting — the earliest time
	// the process should be retried (MaxTime when only an external Wake can
	// unblock it).
	Run(limit Time) (local Time, state RunState, wake Time)
}

// ErrDeadlock is returned by Scheduler.Run when every live process is
// waiting for an external wake that can never arrive.
var ErrDeadlock = errors.New("sim: deadlock: all processes waiting with no pending events")

// procEntry tracks scheduler-side state for one process.
type procEntry struct {
	p       Process
	local   Time
	readyAt Time
	done    bool
	track   *telemetry.Track // per-process dispatch lane; lazily created
}

// SchedTel is the scheduler's telemetry bundle: dispatch/wake counters,
// quantum-usage and run-queue-depth histograms, and per-process dispatch
// spans on "sched/<name>" tracks. A nil *SchedTel disables everything (the
// scheduler hot loop guards on the single pointer).
type SchedTel struct {
	Sink        *telemetry.Sink
	Dispatches  *telemetry.Counter   // Process.Run invocations
	Wakes       *telemetry.Counter   // external Wake calls that advanced readiness
	QuantumUsed *telemetry.Histogram // simulated ps consumed per dispatch
	RunQueue    *telemetry.Histogram // live (not done) processes at each dispatch
}

// NewSchedTel registers the scheduler metrics on sink; returns nil for a
// nil sink so the disabled path stays a nil-pointer branch.
func NewSchedTel(sink *telemetry.Sink) *SchedTel {
	if sink == nil {
		return nil
	}
	return &SchedTel{
		Sink:        sink,
		Dispatches:  sink.Counter("sched", "dispatches"),
		Wakes:       sink.Counter("sched", "wakes"),
		QuantumUsed: sink.Histogram("sched", "quantum_used_ps"),
		RunQueue:    sink.Histogram("sched", "run_queue_live"),
	}
}

// Scheduler co-simulates a set of processes together with an event queue
// (used by passive components such as the firmware's page pipeline).
type Scheduler struct {
	// Quantum bounds how far a process may run past the minimum local time
	// of its peers, trading simulation fidelity for speed. The default
	// (1 µs) is well under the 16 µs flash page transfer time that paces
	// the modelled SSDs.
	Quantum Time

	Events EventQueue

	// Tel, when non-nil, collects dispatch/wake/run-queue telemetry and
	// emits one span per dispatch on a per-process track.
	Tel *SchedTel

	// OnAdvance, when non-nil, is called before every dispatch with the
	// dispatched process's start time in picoseconds — the committed
	// simulation horizon at that moment (conservative interleaving keeps
	// other processes within one quantum of it). Timeline samplers hook
	// here; the disabled path is a single nil check.
	OnAdvance func(nowPs int64)

	procs []*procEntry
	index map[Process]*procEntry

	// wakeGen increments whenever a Wake improves some process's readiness;
	// Run's all-blocked fast-forward batches event dispatch until it changes
	// instead of rescanning every process after each event.
	wakeGen uint64
}

// NewScheduler returns a scheduler with the default quantum.
func NewScheduler() *Scheduler {
	return &Scheduler{Quantum: Microsecond, index: make(map[Process]*procEntry)}
}

// Add registers a process starting at local time 0. Re-adding a process
// that already ran (e.g. a compute engine receiving its next request)
// revives its entry: the local clock is preserved, done/ready state resets.
func (s *Scheduler) Add(p Process) {
	if e, ok := s.index[p]; ok {
		e.done = false
		e.readyAt = e.local
		return
	}
	e := &procEntry{p: p}
	s.procs = append(s.procs, e)
	s.index[p] = e
}

// Wake makes a waiting process runnable no later than t. Waking an unknown
// or finished process is a no-op.
func (s *Scheduler) Wake(p Process, t Time) {
	e, ok := s.index[p]
	if !ok || e.done {
		return
	}
	if t < e.local {
		t = e.local
	}
	if t < e.readyAt {
		e.readyAt = t
		s.wakeGen++
		if s.Tel != nil {
			s.Tel.Wakes.Inc()
		}
	}
}

// Now returns the minimum local time across live processes, i.e. the
// committed simulation horizon. When all processes are done it returns the
// maximum local time instead.
func (s *Scheduler) Now() Time {
	minLive := MaxTime
	maxDone := Time(0)
	for _, e := range s.procs {
		if e.done {
			maxDone = MaxT(maxDone, e.local)
			continue
		}
		minLive = MinT(minLive, e.local)
	}
	if minLive == MaxTime {
		return maxDone
	}
	return minLive
}

// Run drives all processes to completion or to the deadline. It returns the
// final simulation time, or ErrDeadlock if progress becomes impossible.
func (s *Scheduler) Run(deadline Time) (Time, error) {
	if s.Quantum <= 0 {
		s.Quantum = Microsecond
	}
	tel := s.Tel
	for {
		// Pick the live process with the earliest readiness.
		var next *procEntry
		live := 0
		for _, e := range s.procs {
			if e.done {
				continue
			}
			if tel != nil {
				live++
			}
			if next == nil || e.readyAt < next.readyAt {
				next = e
			}
		}
		if next == nil {
			// All processes finished; flush remaining passive events
			// (output drains, posted writes) before reporting completion.
			// The event clock must not jump to the deadline: the next
			// request reuses this scheduler.
			s.Events.FlushUntil(deadline)
			return s.Now(), nil
		}

		// Every live process waits for an unknown wake: fast-forward by
		// dispatching events back to back (they fire in time order either
		// way) until one of them lands a Wake, without rescanning the
		// process table per event. The event clock still never jumps past
		// the last dispatched event.
		if next.readyAt == MaxTime {
			gen := s.wakeGen
			stepped := false
			for gen == s.wakeGen && s.Events.Step() {
				stepped = true
			}
			if stepped {
				continue
			}
			return s.Now(), fmt.Errorf("%w (e.g. %s)", ErrDeadlock, next.p.Name())
		}
		if next.readyAt >= deadline {
			s.Events.FlushUntil(deadline)
			return deadline, nil
		}

		// Let the event world catch up to the chosen process, then give
		// queued events a chance to wake earlier sleepers.
		s.Events.RunUntil(next.readyAt)
		for _, e := range s.procs {
			if !e.done && e.readyAt < next.readyAt {
				next = e
			}
		}

		if next.readyAt > next.local {
			next.local = next.readyAt // the process was stalled; jump forward
		}
		if s.OnAdvance != nil {
			s.OnAdvance(int64(next.local))
		}
		limit := MinT(next.local+s.Quantum, deadline)
		start := next.local
		local, state, wake := next.p.Run(limit)
		if local < next.local {
			local = next.local
		}
		next.local = local
		if tel != nil {
			tel.Dispatches.Inc()
			tel.RunQueue.Observe(int64(live))
			tel.QuantumUsed.Observe(int64(local - start))
			if next.track == nil {
				next.track = tel.Sink.Track("sched/" + next.p.Name())
			}
			next.track.Span("run", int64(start), int64(local))
		}
		switch state {
		case StateDone:
			next.done = true
		case StateWaiting:
			if wake < local {
				wake = local
			}
			next.readyAt = wake
		default:
			next.readyAt = local
		}
	}
}
