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
// mostly schedule-at-now pump events, a minority of future transfer
// completions, with interleaved dispatch.
func BenchmarkEventQueueMixed(b *testing.B) {
	var q EventQueue
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			q.Schedule(q.Now()+Time(i%13+1), fn) // future
		} else {
			q.Schedule(q.Now(), fn) // at now
		}
		if i >= 32 {
			q.Step()
		}
	}
	for q.Step() {
	}
}
