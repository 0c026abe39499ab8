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

// availSeg is one push: the stream bytes [End-len(Data), End), held by
// reference, become usable at At.
type availSeg struct {
	End  int64 // exclusive absolute byte offset
	At   sim.Time
	Data []byte
}

// InStream is one input stream slot of an ASSASIN stream buffer: a window
// of P flash pages with Head (consume) and Tail (deliver) pointers exposed
// as CSRs. The firmware pushes pages (with their flash arrival times); the
// core consumes bytes through StreamLoad/Peek/Adv, or — for the
// software-managed scratchpad and DRAM-staged configurations — through
// window-absolute reads.
//
// The window references the pushed pages instead of copying them: flash
// pages are never mutated once written, so a push costs no copy, and
// capBytes is pure window accounting (CanPush, Buffered).
type InStream struct {
	capBytes int
	pageSize int

	consumed  int64 // Head: absolute bytes consumed/released
	delivered int64 // Tail: absolute bytes delivered
	closed    bool  // producer finished

	avail     []availSeg
	availHead int
	lastAvail sim.Time
	// scan resumes BulkAvail's walk: every segment in [availHead, scan) was
	// usable at scanAt. trimAvail's compaction shifts it with the segments.
	scan   int
	scanAt sim.Time

	// cur is the pushed segment gather read last; it holds the stream
	// bytes [curStart, curStart+len(cur)).
	cur      []byte
	curStart int64

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
// It allocates no window storage: pushes are held by reference.
func NewInStream(pages, pageSize int) *InStream {
	if pages <= 0 || pageSize <= 0 {
		panic("memhier: bad stream window geometry")
	}
	return &InStream{capBytes: pages * pageSize, pageSize: pageSize}
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

// Exhausted reports end-of-stream: closed and fully consumed.
func (s *InStream) Exhausted() bool { return s.closed && s.Buffered() == 0 }

// Push delivers data (typically one flash page) that becomes usable at
// availableAt. It fails if the window lacks space or the stream is closed.
// The stream keeps data by reference until Head passes it, so the caller
// must not change it (flash pages never change once written).
func (s *InStream) Push(data []byte, availableAt sim.Time) error {
	if s.closed {
		return fmt.Errorf("memhier: push on closed stream")
	}
	if !s.CanPush(len(data)) {
		return fmt.Errorf("memhier: stream window overflow (%d buffered + %d > %d)", s.Buffered(), len(data), s.capBytes)
	}
	s.delivered += int64(len(data))
	// Availability is monotone per stream: a page can't be usable before
	// its predecessors (the firmware delivers in order).
	if availableAt < s.lastAvail {
		availableAt = s.lastAvail
	}
	s.lastAvail = availableAt
	s.avail = append(s.avail, availSeg{End: s.delivered, At: availableAt, Data: data})
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

// gather returns the little-endian width-byte word at the absolute offset
// off, which must lie in [Head, Tail).
func (s *InStream) gather(off int64, width int) uint32 {
	p := int(off - s.curStart)
	if p < 0 || p+width > len(s.cur) {
		return s.gatherMiss(off, width)
	}
	// Width-specialized little-endian loads over an exact-width subslice:
	// one bounds check, and the compiler fuses each run of byte ORs into a
	// single load. StreamLoad traffic is almost entirely 1/2/4-byte words.
	r := s.cur[p : p+width]
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

// gatherMiss is gather's slow path: it moves cur to the segment holding
// off, and reads a word that straddles two segments byte by byte.
func (s *InStream) gatherMiss(off int64, width int) uint32 {
	s.locate(off)
	if int(off-s.curStart)+width <= len(s.cur) {
		return s.gather(off, width)
	}
	var v uint32
	for i := 0; i < width; i++ {
		o := off + int64(i)
		if o >= s.curStart+int64(len(s.cur)) {
			s.locate(o)
		}
		v |= uint32(s.cur[o-s.curStart]) << (8 * i)
	}
	return v
}

// locate points cur at the live segment holding the byte at off.
func (s *InStream) locate(off int64) {
	for i := s.availHead; i < len(s.avail); i++ {
		if seg := &s.avail[i]; off < seg.End {
			s.cur, s.curStart = seg.Data, seg.End-int64(len(seg.Data))
			return
		}
	}
	panic(fmt.Sprintf("memhier: stream read at %d past Tail %d", off, s.delivered))
}

// BulkAvail returns how many buffered bytes past Head are usable at time at:
// the window the compiled interpreter may consume without ever stalling on an
// in-flight page. Availability segments are per-page (not per-byte), and
// their At times are monotone, so the usable segments are a prefix of the
// live ones. The walk resumes where the last call stopped: the core's clock
// only moves forward, so each segment is passed once, and a call at an
// earlier time restarts from the trim point.
func (s *InStream) BulkAvail(at sim.Time) int64 {
	i := max(s.scan, s.availHead)
	if at < s.scanAt {
		i = s.availHead
	}
	for i < len(s.avail) && s.avail[i].At <= at {
		i++
	}
	s.scan, s.scanAt = i, at
	if i == s.availHead {
		return 0
	}
	return s.avail[i-1].End - s.consumed
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
		s.scan = max(s.scan-s.availHead, 0)
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

// Adv is the StreamAdvance rule: it advances Head by n bytes, releasing
// window space. An Adv past the buffered bytes blocks, leaving Head where it
// is, while the stream is open; once it is closed, it releases only the
// buffered remainder (the final partial page). A negative n is an error.
func (s *InStream) Adv(n int64) (blocked bool, err error) {
	if n < 0 {
		return false, fmt.Errorf("memhier: stream Adv(%d) of a negative byte count", n)
	}
	if buf := int64(s.Buffered()); n > buf {
		if !s.closed {
			return true, nil
		}
		n = buf
	}
	s.consumed += n
	s.trimAvail()
	if s.OnFree != nil && n > 0 {
		s.OnFree()
	}
	return false, nil
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
//
// Appends go into page-sized chunks, chunk k holding the stream bytes
// [k×pageSize, (k+1)×pageSize). A drain never spans a page, so each is a
// view of the head chunk; the firmware drains whole pages from page
// boundaries (all but a stream's last drain). When the drainer keeps
// nothing, a chunk Head has passed is reused for a later page, so
// page-aligned drains keep at most a window's worth of chunks live; with
// Keep set, every drained view is the drainer's for good and no chunk is
// reused.
type OutStream struct {
	capBytes int
	pageSize int

	chunks  [][]byte // live chunks, oldest first; chunks[0] holds Head
	tail    []byte   // the newest chunk; full (or nil) when Tail starts a page
	tailOff int      // Tail's offset in tail
	free    [][]byte // released chunks, reused before allocating

	appended int64
	drained  int64

	// Keep, when set, hands drained pages over: a chunk Head passes is
	// dropped rather than reused, so a view PeekBytes returned never
	// changes afterwards (the firmware sets it for streams whose
	// pages it stores in flash or collects for the host).
	Keep bool

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
// Like NewInStream, it allocates no window storage: chunks are built on
// the first append into them.
func NewOutStream(pages, pageSize int) *OutStream {
	if pages <= 0 || pageSize <= 0 {
		panic("memhier: bad stream window geometry")
	}
	return &OutStream{capBytes: pages * pageSize, pageSize: pageSize}
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
	if s.tailOff+width <= len(s.tail) {
		r := s.tail[s.tailOff : s.tailOff+width]
		for i := range r {
			r[i] = byte(v >> (8 * i))
		}
		s.tailOff += width
	} else {
		for i := 0; i < width; i++ {
			if s.tailOff == len(s.tail) {
				s.nextChunk()
			}
			s.tail[s.tailOff] = byte(v >> (8 * i))
			s.tailOff++
		}
	}
	s.appended += int64(width)
	if s.OnData != nil {
		s.OnData()
	}
	return true
}

// nextChunk starts the chunk for the page at Tail, reusing a released one.
func (s *OutStream) nextChunk() {
	if n := len(s.free); n > 0 {
		s.tail = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.tail = make([]byte, s.pageSize)
	}
	s.chunks = append(s.chunks, s.tail)
	s.tailOff = 0
}

// headSpan returns Head's offset in its page and how many of up to n
// buffered bytes lie in that page.
func (s *OutStream) headSpan(n int) (h, m int) {
	h = int(s.drained % int64(s.pageSize))
	return h, min(n, s.Buffered(), s.pageSize-h)
}

// PeekBytes returns up to n buffered bytes from Head without draining
// them, stopping at the end of Head's page — the firmware uses it to issue
// the flash/DRAM write before freeing the window.
//
// Aliasing contract: the bytes are a view of the stream's chunk. Without
// Keep, the view is valid until the next Append or Drain on this stream,
// and callers that need the bytes beyond that must copy them; with Keep, it
// never changes.
func (s *OutStream) PeekBytes(n int) []byte {
	h, n := s.headSpan(n)
	if n <= 0 {
		return nil
	}
	return s.chunks[0][h : h+n : h+n]
}

// Drain removes up to n buffered bytes from Head, stopping at the end of
// Head's page; at is when the space is freed (propagated to a stalled
// producer via OnSpace). Without Keep, a chunk Head passes goes back for
// reuse by a later Append.
func (s *OutStream) Drain(n int, at sim.Time) {
	h, n := s.headSpan(n)
	if n <= 0 {
		return
	}
	if h+n == s.pageSize {
		if !s.Keep {
			s.free = append(s.free, s.chunks[0])
		}
		s.chunks = s.chunks[:copy(s.chunks, s.chunks[1:])]
	}
	s.drained += int64(n)
	if t := s.Tel; t != nil {
		t.DrainBytes.Add(int64(n))
		t.OutOccupancy.Observe(int64(s.Buffered()))
	}
	if s.OnSpace != nil {
		s.OnSpace(at)
	}
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
