package sim

// event is a callback scheduled at a point in simulated time. Events are
// held by value, so scheduling allocates nothing once the queue's backing
// array has grown to the working set.
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
// Every event goes through one binary min-heap keyed by (at, seq). Sequence
// numbers are unique, so (at, seq) is a strict total order and the dispatch
// order is fully determined: events at the same time run in the order they
// were scheduled.
type EventQueue struct {
	heap []event // a binary min-heap in (at, seq) order
	now  Time
	seq  int64
}

// Now returns the time of the most recently dispatched event.
func (q *EventQueue) Now() Time { return q.now }

// Schedule queues fn to run at time at. Scheduling in the past (before the
// last dispatched event) snaps to the current time rather than violating
// causality; callers that care should not do it.
func (q *EventQueue) Schedule(at Time, fn func(now Time)) {
	q.seq++
	q.heapPush(event{at: MaxT(at, q.now), seq: q.seq, fn: fn})
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

// PeekTime returns the time of the next event, or MaxTime if none.
func (q *EventQueue) PeekTime() Time {
	if len(q.heap) == 0 {
		return MaxTime
	}
	return q.heap[0].at
}

// Step dispatches the next event. It reports false when the queue is empty.
func (q *EventQueue) Step() bool {
	if len(q.heap) == 0 {
		return false
	}
	e := q.heapPop()
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
