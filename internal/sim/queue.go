package sim

// event is a callback scheduled at a point in simulated time. Events are
// held by value, so scheduling allocates nothing once the queue's backing
// arrays have grown to the working set.
type event struct {
	at  Time
	seq int64 // tie-breaker: FIFO among simultaneous events
	fn  func(now Time)
}

// before reports whether e dispatches ahead of o: (at, seq) order.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// EventQueue is a time-ordered queue of events with FIFO tie-breaking. The
// zero value is ready to use.
//
// Internally it is two-level: events scheduled at the current time — the
// dominant pattern in the firmware page pipeline, where every pump hop
// schedules its successor "now" — go to an O(1) FIFO lane, while future
// events go to a binary heap. The two are merged at the head by (at, seq),
// so dispatch order is exactly what a single heap would produce.
type EventQueue struct {
	heap []event // future events, a binary min-heap in (at, seq) order
	now  Time
	seq  int64
	// lane holds events scheduled at (or clamped to) the current time from
	// laneHead on. Each entry is appended at Now with a fresh sequence
	// number, and Now only moves forward, so the lane is in (at, seq) order
	// by construction. A heap entry can still tie with it at Now and carry
	// an older seq, which is why the head merge compares the two.
	lane     []event
	laneHead int
}

// Now returns the time of the most recently dispatched event.
func (q *EventQueue) Now() Time { return q.now }

// Schedule queues fn to run at time at. Scheduling in the past (before the
// last dispatched event) snaps to the current time rather than violating
// causality; callers that care should not do it.
func (q *EventQueue) Schedule(at Time, fn func(now Time)) {
	q.seq++
	e := event{at: MaxT(at, q.now), seq: q.seq, fn: fn}
	if e.at == q.now {
		q.lane = append(q.lane, e)
	} else {
		q.heapPush(e)
	}
}

// heapPush sifts e up from the bottom of the heap.
func (q *EventQueue) heapPush(e event) {
	q.heap = append(q.heap, e)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// heapPop removes and returns the heap's least event, sifting the last one
// down from the root into the hole.
func (q *EventQueue) heapPop() event {
	h := q.heap
	top, n := h[0], len(h)-1
	last := h[n]
	h[n] = event{} // drop the closure reference
	h = h[:n]
	q.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// laneFirst reports whether the lane holds the next event to dispatch: it
// is non-empty and its head sorts before the heap's top.
func (q *EventQueue) laneFirst() bool {
	return q.laneHead < len(q.lane) && (len(q.heap) == 0 || q.lane[q.laneHead].before(&q.heap[0]))
}

// PeekTime returns the time of the next event, or MaxTime if none.
func (q *EventQueue) PeekTime() Time {
	switch {
	case q.laneFirst():
		return q.lane[q.laneHead].at
	case len(q.heap) > 0:
		return q.heap[0].at
	}
	return MaxTime
}

// Step dispatches the next event. It reports false when the queue is empty.
func (q *EventQueue) Step() bool {
	var e event
	switch {
	case q.laneFirst():
		e = q.lane[q.laneHead]
		q.lane[q.laneHead] = event{}
		q.laneHead++
		if q.laneHead == len(q.lane) {
			q.lane, q.laneHead = q.lane[:0], 0
		}
	case len(q.heap) > 0:
		e = q.heapPop()
	default:
		return false
	}
	q.now = e.at
	e.fn(e.at)
	return true
}

// RunUntil dispatches events with at <= deadline and advances Now to
// deadline (or to the last event time if that is later than the deadline
// due to an exactly-at-deadline event). It returns the number of events run.
func (q *EventQueue) RunUntil(deadline Time) int {
	n := q.FlushUntil(deadline)
	q.now = MaxT(q.now, deadline)
	return n
}

// FlushUntil dispatches events with at <= deadline like RunUntil, but never
// advances Now past the last dispatched event — callers that may keep
// using the queue afterwards (e.g. between back-to-back requests) must not
// have the clock dragged to an arbitrary deadline.
func (q *EventQueue) FlushUntil(deadline Time) int {
	n := 0
	// PeekTime returns MaxTime for an empty queue, so when deadline is
	// MaxTime the Step return is what terminates the loop.
	for q.PeekTime() <= deadline && q.Step() {
		n++
	}
	return n
}

// Drain dispatches all remaining events, with a safety bound to surface
// accidental event storms in tests. It returns the number of events run.
func (q *EventQueue) Drain(maxEvents int) int {
	n := 0
	for q.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}
