package sim

import (
	"errors"
	"testing"
)

// tickerProc advances in fixed steps, recording each step time into a shared
// trace, until it has made n steps.
type tickerProc struct {
	name  string
	step  Time
	n     int
	local Time
	trace *[]traceEntry
}

type traceEntry struct {
	who string
	at  Time
}

func (p *tickerProc) Name() string { return p.name }

func (p *tickerProc) Run(limit Time) (Time, RunState, Time) {
	for p.n > 0 && p.local+p.step <= limit {
		p.local += p.step
		p.n--
		if p.trace != nil {
			*p.trace = append(*p.trace, traceEntry{p.name, p.local})
		}
	}
	if p.n == 0 {
		return p.local, StateDone, 0
	}
	return p.local, StateReady, 0
}

func TestSchedulerInterleavesByLocalTime(t *testing.T) {
	var trace []traceEntry
	s := NewScheduler()
	s.Quantum = 10
	fast := &tickerProc{name: "fast", step: 3, n: 10, trace: &trace}
	slow := &tickerProc{name: "slow", step: 7, n: 4, trace: &trace}
	s.Add(fast)
	s.Add(slow)
	end, err := s.Run(MaxTime)
	if err != nil {
		t.Fatal(err)
	}
	if end != 30 { // fast finishes at 30, slow at 28
		t.Errorf("end = %v, want 30", end)
	}
	// The trace must be near-ordered: no entry precedes an earlier entry by
	// more than one quantum.
	for i := 1; i < len(trace); i++ {
		if trace[i].at+Time(s.Quantum) < trace[i-1].at {
			t.Fatalf("trace out of order beyond quantum at %d: %v", i, trace)
		}
	}
}

// waiterProc waits for an external wake, then finishes.
type waiterProc struct {
	name  string
	woken bool
	ranAt Time
}

func (p *waiterProc) Name() string { return p.name }
func (p *waiterProc) Run(limit Time) (Time, RunState, Time) {
	if !p.woken {
		return 0, StateWaiting, MaxTime
	}
	return p.ranAt, StateDone, 0
}

func TestSchedulerWakeFromEvent(t *testing.T) {
	s := NewScheduler()
	w := &waiterProc{name: "w"}
	s.Add(w)
	s.Events.Schedule(100, func(now Time) {
		w.woken = true
		w.ranAt = now
		s.Wake(w, now)
	})
	end, err := s.Run(MaxTime)
	if err != nil {
		t.Fatal(err)
	}
	if end < 100 {
		t.Errorf("end = %v, want >= 100", end)
	}
}

func TestSchedulerDeadlockDetection(t *testing.T) {
	s := NewScheduler()
	s.Add(&waiterProc{name: "stuck"})
	_, err := s.Run(MaxTime)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestSchedulerDeadline(t *testing.T) {
	s := NewScheduler()
	s.Add(&tickerProc{name: "t", step: 10, n: 1 << 30})
	end, err := s.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if end != 1000 {
		t.Errorf("end = %v, want deadline 1000", end)
	}
}

// producerConsumer exercises the wake path that the firmware/core pair uses:
// a producer event fills a queue, the consumer process drains it.
func TestSchedulerProducerConsumer(t *testing.T) {
	s := NewScheduler()
	queue := 0
	consumed := 0
	var cons *consumerProc
	cons = &consumerProc{
		name: "consumer",
		take: func(now Time) (bool, bool) {
			if queue > 0 {
				queue--
				consumed++
				return true, consumed == 5
			}
			return false, false
		},
	}
	s.Add(cons)
	for i := 1; i <= 5; i++ {
		at := Time(i) * 100
		s.Events.Schedule(at, func(now Time) {
			queue++
			s.Wake(cons, now)
		})
	}
	end, err := s.Run(MaxTime)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != 5 {
		t.Errorf("consumed = %d, want 5", consumed)
	}
	if end < 500 {
		t.Errorf("end = %v, want >= 500", end)
	}
}

type consumerProc struct {
	name  string
	local Time
	take  func(now Time) (ok, done bool)
}

func (p *consumerProc) Name() string { return p.name }
func (p *consumerProc) Run(limit Time) (Time, RunState, Time) {
	for p.local <= limit {
		ok, done := p.take(p.local)
		if done {
			return p.local, StateDone, 0
		}
		if !ok {
			return p.local, StateWaiting, MaxTime
		}
		p.local += 10
	}
	return p.local, StateReady, 0
}

func TestSchedulerNowAcrossProcesses(t *testing.T) {
	s := NewScheduler()
	a := &tickerProc{name: "a", step: 5, n: 2}
	b := &tickerProc{name: "b", step: 50, n: 2}
	s.Add(a)
	s.Add(b)
	if _, err := s.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 100 {
		t.Errorf("Now = %v, want 100 (max done time)", s.Now())
	}
}

// limitProc records the limit passed to each Run call, advancing by step
// until done.
type limitProc struct {
	name   string
	step   Time
	n      int
	local  Time
	limits []Time
}

func (p *limitProc) Name() string { return p.name }

func (p *limitProc) Run(limit Time) (Time, RunState, Time) {
	p.limits = append(p.limits, limit)
	for p.n > 0 && p.local+p.step <= limit {
		p.local += p.step
		p.n--
	}
	if p.n == 0 {
		return p.local, StateDone, 0
	}
	return p.local, StateReady, 0
}

// TestSchedulerReAddResumesLocalTime: re-adding a finished process (a
// second offload on the same core) resumes it from its prior local time.
func TestSchedulerReAddResumesLocalTime(t *testing.T) {
	s := NewScheduler()
	p := &limitProc{name: "p", step: Nanosecond, n: 5}
	s.Add(p)
	if _, err := s.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if got := p.limits[0]; got != s.Quantum {
		t.Fatalf("first limit = %v, want the quantum %v", got, s.Quantum)
	}
	p.n = 5
	p.limits = nil
	s.Add(p)
	if _, err := s.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if got, want := p.limits[0], 5*Nanosecond+s.Quantum; got != want {
		t.Fatalf("limit after re-Add = %v, want %v (local 5ns + quantum)", got, want)
	}
	if s.Now() != 10*Nanosecond {
		t.Fatalf("Now = %v after two runs of five 1ns steps, want 10ns", s.Now())
	}
}
