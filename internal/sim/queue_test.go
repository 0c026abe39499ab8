package sim

import (
	"math/rand"
	"testing"
)

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue
	var got []int
	q.Schedule(30, func(Time) { got = append(got, 3) })
	q.Schedule(10, func(Time) { got = append(got, 1) })
	q.Schedule(20, func(Time) { got = append(got, 2) })
	q.Drain(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dispatch order = %v, want [1 2 3]", got)
	}
	if q.Now() != 30 {
		t.Errorf("Now = %v, want 30", q.Now())
	}
}

func TestEventQueueFIFOAtSameTime(t *testing.T) {
	var q EventQueue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(5, func(Time) { got = append(got, i) })
	}
	q.Drain(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

// TestEventQueueScheduledAtNowRunsAfterPeers checks that an event a callback
// schedules at its own instant runs after the events already queued for that
// instant: same-time events dispatch in global (at, seq) order.
func TestEventQueueScheduledAtNowRunsAfterPeers(t *testing.T) {
	var q EventQueue
	var got []int
	q.Schedule(20, func(now Time) {
		got = append(got, 1)
		// Queued at Now with a seq after the already-queued peer
		// below: must fire last.
		q.Schedule(now, func(Time) { got = append(got, 3) })
	})
	q.Schedule(20, func(Time) { got = append(got, 2) })
	q.Drain(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("merge order = %v, want [1 2 3]", got)
	}
}

func TestEventQueueRunUntil(t *testing.T) {
	var q EventQueue
	var got []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		q.Schedule(at, func(now Time) { got = append(got, now) })
	}
	n := q.RunUntil(20)
	if n != 2 || len(got) != 2 {
		t.Fatalf("RunUntil(20) ran %d events (%v), want 2", n, got)
	}
	if q.Now() != 20 {
		t.Errorf("Now = %v after RunUntil(20)", q.Now())
	}
	if q.PeekTime() != 25 {
		t.Errorf("PeekTime = %v, want 25", q.PeekTime())
	}
}

func TestEventQueueScheduleInPastSnaps(t *testing.T) {
	var q EventQueue
	q.Schedule(100, func(Time) {})
	q.Step()
	var at Time
	q.Schedule(50, func(now Time) { at = now })
	q.Step()
	if at != 100 {
		t.Errorf("past-scheduled event ran at %v, want snap to 100", at)
	}
}

func TestEventQueueScheduleDuringDispatch(t *testing.T) {
	var q EventQueue
	var got []Time
	q.Schedule(10, func(now Time) {
		q.Schedule(now+5, func(n2 Time) { got = append(got, n2) })
	})
	q.Drain(0)
	if len(got) != 1 || got[0] != 15 {
		t.Fatalf("nested schedule: got %v, want [15]", got)
	}
}

// TestEventQueueRandomizedOrdering drives the queue with a seeded mix of
// every operation the simulator uses — Schedule at now, in the future and in
// the past; callbacks that schedule at their own instant or later; Step,
// RunUntil and FlushUntil — against a reference model: a plain slice of
// pending (at, seq) keys from which the smallest always fires next.
func TestEventQueueRandomizedOrdering(t *testing.T) {
	type key struct {
		at  Time
		seq int64
		id  int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			q       EventQueue
			pending []key // the model: events scheduled and not yet fired
			seq     int64 // the model's copy of the queue's seq counter
			now     Time  // the model's clock
			fired   int
		)
		var fire func(id int) func(Time)
		schedule := func(at Time) {
			seq++
			k := key{at: MaxT(at, now), seq: seq, id: int(seq)}
			pending = append(pending, k)
			q.Schedule(at, fire(k.id))
		}
		fire = func(id int) func(Time) {
			return func(at Time) {
				min := 0
				for i, k := range pending {
					m := pending[min]
					if k.at < m.at || (k.at == m.at && k.seq < m.seq) {
						min = i
					}
				}
				if len(pending) == 0 || pending[min].id != id || pending[min].at != at {
					t.Fatalf("seed %d: event %d fired at %v, model expects the least of %+v", seed, id, at, pending)
				}
				pending = append(pending[:min], pending[min+1:]...)
				now = at
				fired++
				if seq > 3000 {
					return
				}
				switch rng.Intn(5) {
				case 0, 1:
					schedule(at)
				case 2:
					schedule(at + Time(rng.Intn(20)+1))
				}
			}
		}
		for op := 0; op < 1500; op++ {
			before := fired
			switch rng.Intn(7) {
			case 0:
				schedule(now)
			case 1, 2:
				schedule(now + Time(rng.Intn(50)+1))
			case 3:
				schedule(now - Time(rng.Intn(5))) // snaps to now
			case 4:
				empty := len(pending) == 0
				if q.Step() == empty {
					t.Fatalf("seed %d: Step = %v with %d pending", seed, !empty, len(pending))
				}
			case 5:
				deadline := now + Time(rng.Intn(40))
				if n := q.RunUntil(deadline); n != fired-before {
					t.Fatalf("seed %d: RunUntil ran %d events, model saw %d", seed, n, fired-before)
				}
				now = MaxT(now, deadline)
			case 6:
				deadline := now + Time(rng.Intn(40))
				if n := q.FlushUntil(deadline); n != fired-before {
					t.Fatalf("seed %d: FlushUntil ran %d events, model saw %d", seed, n, fired-before)
				}
			}
			if q.Now() != now {
				t.Fatalf("seed %d op %d: Now = %v, model %v", seed, op, q.Now(), now)
			}
			want := MaxTime
			for _, k := range pending {
				want = MinT(want, k.at)
			}
			if at := q.PeekTime(); at != want {
				t.Fatalf("seed %d op %d: PeekTime = %v, model %v", seed, op, at, want)
			}
		}
		q.Drain(0)
		if len(pending) != 0 {
			t.Fatalf("seed %d: %d events never fired", seed, len(pending))
		}
	}
}

func TestBandwidthServerSerialization(t *testing.T) {
	s := NewBandwidthServer("dram", 8e9, 0) // 8 GB/s
	// 64 B at 8 GB/s = 8 ns.
	d1 := s.Access(0, 64)
	if d1 != 8*Nanosecond {
		t.Fatalf("first access done at %v, want 8ns", d1)
	}
	// Arrives while busy: serialized.
	d2 := s.Access(4*Nanosecond, 64)
	if d2 != 16*Nanosecond {
		t.Fatalf("second access done at %v, want 16ns", d2)
	}
	// Arrives after idle gap: starts immediately.
	d3 := s.Access(100*Nanosecond, 64)
	if d3 != 108*Nanosecond {
		t.Fatalf("third access done at %v, want 108ns", d3)
	}
	if s.Bytes() != 192 || s.Accesses() != 3 {
		t.Errorf("stats: bytes=%d accesses=%d", s.Bytes(), s.Accesses())
	}
	if s.BusyTime() != 24*Nanosecond {
		t.Errorf("busy = %v, want 24ns", s.BusyTime())
	}
	u := s.Utilization(108 * Nanosecond)
	if u < 0.22 || u > 0.23 {
		t.Errorf("utilization = %g, want ~24/108", u)
	}
}

func TestBandwidthServerLatency(t *testing.T) {
	s := NewBandwidthServer("link", 1e9, 50*Nanosecond)
	done := s.Access(0, 1000) // 1 µs transfer + 50 ns latency
	if done != Microsecond+50*Nanosecond {
		t.Fatalf("done = %v", done)
	}
	// Latency does not occupy the server.
	if s.NextFree() != Microsecond {
		t.Fatalf("NextFree = %v, want 1us", s.NextFree())
	}
}

func TestBandwidthServerUtilizationNeverExceedsOne(t *testing.T) {
	s := NewBandwidthServer("x", 1e9, 0)
	for i := 0; i < 100; i++ {
		s.Access(0, 1000)
	}
	if u := s.Utilization(Microsecond); u > 1 {
		t.Errorf("utilization %g > 1", u)
	}
}

func TestEventQueueFlushUntilDoesNotAdvanceClock(t *testing.T) {
	var q EventQueue
	fired := 0
	q.Schedule(10, func(Time) { fired++ })
	q.Schedule(500, func(Time) { fired++ })
	n := q.FlushUntil(1000)
	if n != 2 || fired != 2 {
		t.Fatalf("flush ran %d events", n)
	}
	if q.Now() != 500 {
		t.Fatalf("Now = %v after flush, want 500 (not the 1000 deadline)", q.Now())
	}
	// Scheduling after the flush lands at sane times.
	at := Time(-1)
	q.Schedule(600, func(now Time) { at = now })
	q.Drain(0)
	if at != 600 {
		t.Fatalf("post-flush event at %v", at)
	}
}
