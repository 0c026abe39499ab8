package memhier

import (
	"fmt"

	"assasin/internal/sim"
	"assasin/internal/telemetry"
)

// StreamTel is the stream-buffer telemetry bundle, shared across every
// stream slot it is attached to (counts aggregate over slots and cores).
// Instrumented points sit on page-granularity or stall paths only — never
// in the per-word gather/append fast paths — so enabled-mode overhead is
// bounded by page traffic and disabled mode is a nil-pointer branch.
type StreamTel struct {
	PushPages     *telemetry.Counter   // firmware pushes into input windows
	PushBytes     *telemetry.Counter   // bytes pushed into input windows
	RefillStalls  *telemetry.Counter   // input reads that found too few bytes buffered
	OutFullStalls *telemetry.Counter   // output appends that found the window full
	DrainBytes    *telemetry.Counter   // bytes drained from output windows
	Occupancy     *telemetry.Histogram // input head/tail distance after each push
	OutOccupancy  *telemetry.Histogram // output head/tail distance after each drain
}

// NewStreamTel registers the stream-buffer metrics on sink (nil sink ->
// nil StreamTel).
func NewStreamTel(sink *telemetry.Sink) *StreamTel {
	if sink == nil {
		return nil
	}
	return &StreamTel{
		PushPages:     sink.Counter("stream", "push_pages"),
		PushBytes:     sink.Counter("stream", "push_bytes"),
		RefillStalls:  sink.Counter("stream", "refill_stalls"),
		OutFullStalls: sink.Counter("stream", "out_full_stalls"),
		DrainBytes:    sink.Counter("stream", "drain_bytes"),
		Occupancy:     sink.Histogram("stream", "in_occupancy_bytes"),
		OutOccupancy:  sink.Histogram("stream", "out_occupancy_bytes"),
	}
}

// LoadStatus describes the outcome of a stream read attempt.
type LoadStatus int

// Stream access outcomes.
const (
	// LoadOK: data returned; the ready time says when the value is usable.
	LoadOK LoadStatus = iota
	// LoadBlocked: not enough bytes buffered yet and the producer has not
	// finished; the core must stall until woken by a push.
	LoadBlocked
	// LoadEOS: the stream is exhausted (producer closed and buffer empty).
	LoadEOS
)

// availSeg records that stream bytes below End become usable at At.
type availSeg struct {
	End int64 // exclusive absolute byte offset
	At  sim.Time
}

// InStream is one input stream slot of an ASSASIN stream buffer: a circular
// window of P flash pages with Head (consume) and Tail (deliver) pointers
// exposed as CSRs. The firmware pushes pages (with their flash arrival
// times); the core consumes bytes through StreamLoad/Peek/Adv, or — for the
// software-managed scratchpad and DRAM-staged configurations — through
// window-absolute reads.
type InStream struct {
	capBytes int
	// capMask is capBytes-1 when the capacity is a power of two (the usual
	// pages×pageSize geometry), letting the per-word gather path replace the
	// int64 modulo with a mask; 0 selects the modulo fallback.
	capMask  int
	pageSize int
	ring     []byte

	consumed  int64 // Head: absolute bytes consumed/released
	delivered int64 // Tail: absolute bytes delivered
	closed    bool  // producer finished

	avail     []availSeg
	availHead int
	lastAvail sim.Time

	// OnFree, if set, is called when window space is released (the
	// firmware uses it to schedule more flash reads).
	OnFree func()
	// OnPush, if set, is called when data arrives (used to wake a stalled
	// core process at the page's availability time).
	OnPush func(at sim.Time)

	// Tel, when non-nil, counts pushes, occupancy and refill stalls.
	Tel *StreamTel
}

// NewInStream returns an input stream with a window of pages×pageSize bytes.
// The ring backing is sized to the bytes pushed so far (see growRing):
// stream slots are recreated per offload request and most requests use a
// fraction of them, so eager window allocation used to dominate the
// construction profile.
func NewInStream(pages, pageSize int) *InStream {
	if pages <= 0 || pageSize <= 0 {
		panic("memhier: bad stream window geometry")
	}
	cap := pages * pageSize
	return &InStream{capBytes: cap, capMask: ringMask(cap), pageSize: pageSize}
}

// ringMask returns cap-1 for power-of-two capacities, else 0 (modulo path).
func ringMask(cap int) int {
	if cap&(cap-1) == 0 {
		return cap - 1
	}
	return 0
}

// growRing returns ring grown to hold the stream bytes below end: one page
// first, then ×8 steps, capped at capBytes. A ring short of capBytes has
// never wrapped (pos(off) == off), so growing copies the prefix as is.
func growRing(ring []byte, end int64, pageSize, capBytes int) []byte {
	n := max(len(ring), pageSize)
	for int64(n) < end && n < capBytes {
		n *= 8
	}
	grown := make([]byte, min(n, capBytes))
	copy(grown, ring)
	return grown
}

// pos maps an absolute stream offset to a ring index.
func (s *InStream) pos(off int64) int {
	if s.capMask != 0 {
		return int(off) & s.capMask
	}
	return int(off % int64(s.capBytes))
}

// WindowBytes returns the window capacity in bytes.
func (s *InStream) WindowBytes() int { return s.capBytes }

// PageSize returns the page granularity.
func (s *InStream) PageSize() int { return s.pageSize }

// Head returns the absolute consumed-byte count (the Head CSR).
func (s *InStream) Head() int64 { return s.consumed }

// Tail returns the absolute delivered-byte count (the Tail CSR).
func (s *InStream) Tail() int64 { return s.delivered }

// Buffered returns the bytes currently in the window.
func (s *InStream) Buffered() int { return int(s.delivered - s.consumed) }

// CanPush reports whether another n bytes fit in the window.
func (s *InStream) CanPush(n int) bool { return s.Buffered()+n <= s.capBytes }

// Closed reports whether the producer has signalled end of stream.
func (s *InStream) Closed() bool { return s.closed }

// Exhausted reports end-of-stream: closed and fully consumed.
func (s *InStream) Exhausted() bool { return s.closed && s.Buffered() == 0 }

// Push delivers data (typically one flash page) that becomes usable at
// availableAt. It fails if the window lacks space or the stream is closed.
func (s *InStream) Push(data []byte, availableAt sim.Time) error {
	if s.closed {
		return fmt.Errorf("memhier: push on closed stream")
	}
	if !s.CanPush(len(data)) {
		return fmt.Errorf("memhier: stream window overflow (%d buffered + %d > %d)", s.Buffered(), len(data), s.capBytes)
	}
	if end := s.delivered + int64(len(data)); len(s.ring) < s.capBytes && end > int64(len(s.ring)) {
		s.ring = growRing(s.ring, end, s.pageSize, s.capBytes)
	}
	pos := s.pos(s.delivered)
	n := copy(s.ring[pos:], data)
	copy(s.ring, data[n:])
	s.delivered += int64(len(data))
	// Availability is monotone per stream: a page can't be usable before
	// its predecessors (the firmware delivers in order).
	if availableAt < s.lastAvail {
		availableAt = s.lastAvail
	}
	s.lastAvail = availableAt
	s.avail = append(s.avail, availSeg{End: s.delivered, At: availableAt})
	if t := s.Tel; t != nil {
		t.PushPages.Inc()
		t.PushBytes.Add(int64(len(data)))
		t.Occupancy.Observe(int64(s.Buffered()))
	}
	if s.OnPush != nil {
		s.OnPush(availableAt)
	}
	return nil
}

// Close marks the producer finished.
func (s *InStream) Close() { s.closed = true }

// availableAtOffset returns when the byte at absolute offset off becomes
// usable. Caller must ensure off < delivered.
func (s *InStream) availableAtOffset(off int64) sim.Time {
	for i := s.availHead; i < len(s.avail); i++ {
		if off < s.avail[i].End {
			return s.avail[i].At
		}
	}
	return 0
}

func (s *InStream) byteAt(off int64) byte {
	return s.ring[s.pos(off)]
}

func (s *InStream) gather(off int64, width int) uint32 {
	pos := s.pos(off)
	if pos+width <= len(s.ring) {
		// Width-specialized little-endian loads over an exact-width
		// subslice: one bounds check, and the compiler fuses each run of
		// byte ORs into a single load. StreamLoad traffic is almost
		// entirely 1/2/4-byte words.
		r := s.ring[pos : pos+width]
		switch width {
		case 4:
			return uint32(r[0]) | uint32(r[1])<<8 | uint32(r[2])<<16 | uint32(r[3])<<24
		case 1:
			return uint32(r[0])
		case 2:
			return uint32(r[0]) | uint32(r[1])<<8
		}
		var v uint32
		for i, b := range r {
			v |= uint32(b) << (8 * i)
		}
		return v
	}
	var v uint32
	for i := 0; i < width; i++ {
		v |= uint32(s.byteAt(off+int64(i))) << (8 * i)
	}
	return v
}

// BulkAvail returns how many buffered bytes past Head are usable at time at:
// the window the compiled interpreter may consume without ever stalling on an
// in-flight page. Availability segments are per-page (not per-byte), and
// their At times are monotone, so one forward walk from the trim point
// suffices.
func (s *InStream) BulkAvail(at sim.Time) int64 {
	end := s.consumed
	for i := s.availHead; i < len(s.avail); i++ {
		if s.avail[i].At > at {
			break
		}
		end = s.avail[i].End
	}
	if end > s.delivered {
		end = s.delivered
	}
	return end - s.consumed
}

// CopyOut copies up to len(dst) delivered bytes starting at absolute stream
// offset off into dst without consuming them, returning the count copied.
// It is the bulk (memcpy) counterpart of per-word Peek for firmware-side and
// test consumers; availability times are the caller's concern.
func (s *InStream) CopyOut(dst []byte, off int64) int {
	if off < s.consumed {
		off = s.consumed
	}
	n := int(s.delivered - off)
	if n > len(dst) {
		n = len(dst)
	}
	if n <= 0 {
		return 0
	}
	pos := s.pos(off)
	c := copy(dst[:n], s.ring[pos:])
	copy(dst[c:n], s.ring)
	return n
}

// LoadDirect consumes width bytes at Head and returns the little-endian
// value, bypassing the availability scan. The caller (the compiled
// loop path in internal/cpu) must have already established via BulkAvail
// that the bytes are buffered and usable at the access time; the consume
// side effects (trim, OnFree) match Load exactly.
func (s *InStream) LoadDirect(width int) uint32 {
	v := s.gather(s.consumed, width)
	s.consumed += int64(width)
	s.trimAvail()
	if s.OnFree != nil {
		s.OnFree()
	}
	return v
}

// PeekDirect reads width bytes at Head+off without consuming, bypassing the
// availability scan; the same BulkAvail precondition as LoadDirect applies.
func (s *InStream) PeekDirect(off int64, width int) uint32 {
	return s.gather(s.consumed+off, width)
}

func (s *InStream) trimAvail() {
	for s.availHead < len(s.avail) && s.avail[s.availHead].End <= s.consumed {
		s.availHead++
	}
	if s.availHead > 64 && s.availHead*2 > len(s.avail) {
		// Compact in place: the live tail never overlaps destructively
		// (copy moves left), so steady-state consumption allocates nothing.
		n := copy(s.avail, s.avail[s.availHead:])
		s.avail = s.avail[:n]
		s.availHead = 0
	}
}

// Load consumes width bytes from the Head at time at. On LoadOK it returns
// the little-endian value and the time the value is ready (at, or the
// arrival time of a still-in-flight page).
func (s *InStream) Load(at sim.Time, width int) (uint32, sim.Time, LoadStatus) {
	if s.Buffered() < width {
		if s.closed {
			return 0, at, LoadEOS
		}
		if s.Tel != nil {
			s.Tel.RefillStalls.Inc()
		}
		return 0, at, LoadBlocked
	}
	ready := sim.MaxT(at, s.availableAtOffset(s.consumed+int64(width)-1))
	v := s.gather(s.consumed, width)
	s.consumed += int64(width)
	s.trimAvail()
	if s.OnFree != nil {
		s.OnFree()
	}
	return v, ready, LoadOK
}

// Peek reads width bytes at Head+off without consuming.
func (s *InStream) Peek(at sim.Time, off int64, width int) (uint32, sim.Time, LoadStatus) {
	need := off + int64(width)
	if int64(s.Buffered()) < need {
		if s.closed {
			return 0, at, LoadEOS
		}
		if s.Tel != nil {
			s.Tel.RefillStalls.Inc()
		}
		return 0, at, LoadBlocked
	}
	ready := sim.MaxT(at, s.availableAtOffset(s.consumed+need-1))
	return s.gather(s.consumed+off, width), ready, LoadOK
}

// Adv advances Head by n bytes, releasing window space. Advancing past Tail
// is an error.
func (s *InStream) Adv(n int64) error {
	if n < 0 || n > int64(s.Buffered()) {
		return fmt.Errorf("memhier: stream Adv(%d) beyond %d buffered bytes", n, s.Buffered())
	}
	s.consumed += n
	s.trimAvail()
	if s.OnFree != nil && n > 0 {
		s.OnFree()
	}
	return nil
}

// ReadAt reads width bytes at the absolute stream offset off without moving
// Head — the access mode of software-managed windows (ping-pong scratchpads
// and DRAM staging buffers), where the kernel walks a pointer and releases
// space page-wise via Adv. off must be within [Head, Tail).
func (s *InStream) ReadAt(at sim.Time, off int64, width int) (uint32, sim.Time, LoadStatus) {
	if off < s.consumed {
		return 0, at, LoadEOS // window space already released: kernel bug
	}
	if off+int64(width) > s.delivered {
		if s.closed {
			return 0, at, LoadEOS
		}
		if s.Tel != nil {
			s.Tel.RefillStalls.Inc()
		}
		return 0, at, LoadBlocked
	}
	ready := sim.MaxT(at, s.availableAtOffset(off+int64(width)-1))
	return s.gather(off, width), ready, LoadOK
}

// OutStream is one output stream slot: the core appends bytes, the firmware
// drains them page-wise toward the flash array or SSD DRAM.
type OutStream struct {
	capBytes int
	capMask  int // capBytes-1 for power-of-two windows (see InStream.capMask)
	pageSize int
	ring     []byte

	appended int64
	drained  int64
	scratch  []byte // reused by PeekBytes/Drain; see the aliasing contract there

	// OnData, if set, is called when bytes are appended (the firmware uses
	// it to schedule drains).
	OnData func()
	// OnSpace, if set, is called with the time at which window space was
	// freed (used to wake a core stalled on a full output window).
	OnSpace func(at sim.Time)

	// Tel, when non-nil, counts full-window stalls and drain traffic.
	Tel *StreamTel
}

// NewOutStream returns an output stream with a window of pages×pageSize.
// Like NewInStream, the ring backing grows with the bytes appended.
func NewOutStream(pages, pageSize int) *OutStream {
	if pages <= 0 || pageSize <= 0 {
		panic("memhier: bad stream window geometry")
	}
	cap := pages * pageSize
	return &OutStream{capBytes: cap, capMask: ringMask(cap), pageSize: pageSize}
}

// pos maps an absolute stream offset to a ring index.
func (s *OutStream) pos(off int64) int {
	if s.capMask != 0 {
		return int(off) & s.capMask
	}
	return int(off % int64(s.capBytes))
}

// WindowBytes returns the window capacity.
func (s *OutStream) WindowBytes() int { return s.capBytes }

// PageSize returns the drain granularity.
func (s *OutStream) PageSize() int { return s.pageSize }

// Tail returns the absolute appended-byte count (the Tail CSR).
func (s *OutStream) Tail() int64 { return s.appended }

// Head returns the absolute drained-byte count (the Head CSR).
func (s *OutStream) Head() int64 { return s.drained }

// Buffered returns bytes appended but not yet drained.
func (s *OutStream) Buffered() int { return int(s.appended - s.drained) }

// CanAppend reports whether width more bytes fit.
func (s *OutStream) CanAppend(width int) bool { return s.Buffered()+width <= s.capBytes }

// Append stores the low width bytes of v at the Tail. It returns false when
// the window is full (the core must stall until the firmware drains).
func (s *OutStream) Append(v uint32, width int) bool {
	if !s.CanAppend(width) {
		if s.Tel != nil {
			s.Tel.OutFullStalls.Inc()
		}
		return false
	}
	if end := s.appended + int64(width); len(s.ring) < s.capBytes && end > int64(len(s.ring)) {
		s.ring = growRing(s.ring, end, s.pageSize, s.capBytes)
	}
	pos := s.pos(s.appended)
	if pos+width <= len(s.ring) {
		r := s.ring[pos : pos+width]
		for i := range r {
			r[i] = byte(v >> (8 * i))
		}
	} else {
		for i := 0; i < width; i++ {
			s.ring[s.pos(s.appended+int64(i))] = byte(v >> (8 * i))
		}
	}
	s.appended += int64(width)
	if s.OnData != nil {
		s.OnData()
	}
	return true
}

// BulkAppend appends a byte slice with at most two copies (ring wrap),
// replacing the per-byte modulo walk for page-sized producers.
func (s *OutStream) BulkAppend(data []byte) bool {
	if !s.CanAppend(len(data)) {
		if s.Tel != nil {
			s.Tel.OutFullStalls.Inc()
		}
		return false
	}
	if end := s.appended + int64(len(data)); len(s.ring) < s.capBytes && end > int64(len(s.ring)) {
		s.ring = growRing(s.ring, end, s.pageSize, s.capBytes)
	}
	pos := s.pos(s.appended)
	n := copy(s.ring[pos:], data)
	copy(s.ring, data[n:])
	s.appended += int64(len(data))
	if s.OnData != nil {
		s.OnData()
	}
	return true
}

// AppendBytes appends a byte slice (used by non-ISA producers in tests).
func (s *OutStream) AppendBytes(data []byte) bool {
	return s.BulkAppend(data)
}

// peekInto copies n buffered bytes from the Head into the shared scratch
// buffer (growing it as needed) and returns the filled prefix.
func (s *OutStream) peekInto(n int) []byte {
	if n > len(s.scratch) {
		s.scratch = make([]byte, n)
	}
	out := s.scratch[:n]
	pos := s.pos(s.drained)
	c := copy(out, s.ring[pos:])
	copy(out[c:], s.ring)
	return out
}

// PeekBytes returns up to n buffered bytes without draining them — the
// firmware uses it to issue the flash/DRAM write before freeing the window.
//
// Aliasing contract: the returned slice is a view of a scratch buffer owned
// by the stream; it is valid only until the next PeekBytes or Drain call on
// this stream. Callers that need the bytes beyond that must copy them.
func (s *OutStream) PeekBytes(n int) []byte {
	if n > s.Buffered() {
		n = s.Buffered()
	}
	if n <= 0 {
		return nil
	}
	return s.peekInto(n)
}

// Drain removes up to n buffered bytes and returns them; at is when the
// space is freed (propagated to a stalled producer via OnSpace). The same
// aliasing contract as PeekBytes applies: the result shares the stream's
// scratch buffer and is invalidated by the next PeekBytes/Drain call.
func (s *OutStream) Drain(n int, at sim.Time) []byte {
	if n > s.Buffered() {
		n = s.Buffered()
	}
	if n <= 0 {
		return nil
	}
	out := s.peekInto(n)
	s.drained += int64(n)
	if t := s.Tel; t != nil {
		t.DrainBytes.Add(int64(n))
		t.OutOccupancy.Observe(int64(s.Buffered()))
	}
	if s.OnSpace != nil {
		s.OnSpace(at)
	}
	return out
}

// StreamBuffer bundles a core's input and output stream slots (S of each,
// the paper's S=8, P=2 default giving 64 KiB I + 64 KiB O at 16 KiB pages
// is constructed by the ssd package with its parameters).
type StreamBuffer struct {
	In  []*InStream
	Out []*OutStream
}

// NewStreamBuffer returns a stream buffer with slots input and output
// streams: input windows of inPages×pageSize bytes and output windows of
// outPages×pageSize bytes.
func NewStreamBuffer(slots, inPages, outPages, pageSize int) *StreamBuffer {
	sb := &StreamBuffer{
		In:  make([]*InStream, slots),
		Out: make([]*OutStream, slots),
	}
	for i := range sb.In {
		sb.In[i] = NewInStream(inPages, pageSize)
		sb.Out[i] = NewOutStream(outPages, pageSize)
	}
	return sb
}

// AttachTel points every stream slot at the shared telemetry bundle. The
// ssd layer calls it on construction and again whenever streams are
// recreated for a new offload request.
func (sb *StreamBuffer) AttachTel(t *StreamTel) {
	for _, in := range sb.In {
		in.Tel = t
	}
	for _, out := range sb.Out {
		out.Tel = t
	}
}
