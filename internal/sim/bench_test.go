package sim

import "testing"

// BenchmarkEventQueue measures the schedule→dispatch cycle with a steady
// working set of pending events — the firmware page pipeline's pattern.
func BenchmarkEventQueue(b *testing.B) {
	var q EventQueue
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Schedule(q.Now()+Time(i%7+1), fn)
		if i >= 32 {
			q.Step()
		}
	}
	for q.Step() {
	}
}

// BenchmarkEventQueueMixed measures the queue under the firmware's real mix:
// mostly schedule-at-now pump events (the O(1) lane), a minority of future
// transfer completions (the heap), with interleaved dispatch.
func BenchmarkEventQueueMixed(b *testing.B) {
	var q EventQueue
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			q.Schedule(q.Now()+Time(i%13+1), fn) // future: heap path
		} else {
			q.Schedule(q.Now(), fn) // at-now: lane path
		}
		if i >= 32 {
			q.Step()
		}
	}
	for q.Step() {
	}
}

// BenchmarkEventQueueReserved measures the firmware delivery train's
// pattern: reserve a sequence number, let a newer event be scheduled at now,
// then ScheduleSeq the older reservation into the now-lane, where it is
// inserted ahead of the newer one. Every eighth round also parks a future
// transfer completion on the heap, dispatched four rounds later.
func BenchmarkEventQueueReserved(b *testing.B) {
	var q EventQueue
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := q.ReserveSeq()
		q.Schedule(q.Now(), fn)
		q.ScheduleSeq(q.Now(), seq, fn)
		if i%8 == 0 {
			q.Schedule(q.Now()+Time(i%5+1), fn)
		}
		q.Step()
		q.Step()
		if i%8 == 4 {
			q.Step()
		}
	}
	for q.Step() {
	}
}
