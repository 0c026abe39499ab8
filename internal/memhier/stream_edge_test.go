package memhier

import (
	"bytes"
	"testing"

	"assasin/internal/sim"
)

// TestInStreamPeekPastDelivered pins the boundary behavior of Peek when the
// requested extent reaches past Tail: blocked while the producer is live,
// EOS once it closes, and OK again for extents that fit.
func TestInStreamPeekPastDelivered(t *testing.T) {
	s := NewInStream(2, 16)
	if err := s.Push([]byte{1, 2, 3, 4, 5, 6}, 10); err != nil {
		t.Fatal(err)
	}
	// Extent off+width == 6 is exactly Tail: readable.
	if v, _, st := s.Peek(100, 2, 4); st != LoadOK || v != 0x06050403 {
		t.Fatalf("Peek(2,4) = %#x, %v; want 0x06050403, OK", v, st)
	}
	// One byte past Tail: blocked while open…
	if _, _, st := s.Peek(100, 3, 4); st != LoadBlocked {
		t.Fatalf("Peek past Tail on open stream = %v, want blocked", st)
	}
	// …and EOS once the producer closes, even with bytes still buffered.
	s.Close()
	if _, _, st := s.Peek(100, 3, 4); st != LoadEOS {
		t.Fatalf("Peek past Tail on closed stream = %v, want EOS", st)
	}
	if v, _, st := s.Peek(100, 0, 4); st != LoadOK || v != 0x04030201 {
		t.Fatalf("in-window Peek after close = %#x, %v; want OK", v, st)
	}
}

// TestInStreamAdvBeyondBuffered pins the StreamAdvance rule: past Tail, Adv
// blocks on an open stream and a negative Adv fails, both without moving
// Head; once the stream is closed, Adv releases only the buffered rest.
func TestInStreamAdvBeyondBuffered(t *testing.T) {
	s := NewInStream(2, 16)
	if err := s.Push([]byte{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	if blocked, err := s.Adv(5); !blocked || err != nil {
		t.Fatalf("Adv(5) with 4 buffered bytes = %v, %v; want blocked", blocked, err)
	}
	if _, err := s.Adv(-1); err == nil {
		t.Fatal("Adv(-1) succeeded")
	}
	if s.Head() != 0 {
		t.Fatalf("refused Adv moved Head to %d", s.Head())
	}
	if blocked, err := s.Adv(4); blocked || err != nil {
		t.Fatalf("Adv(4) = %v, %v", blocked, err)
	}
	if s.Head() != 4 || s.Buffered() != 0 {
		t.Fatalf("head=%d buffered=%d after full Adv", s.Head(), s.Buffered())
	}
	if err := s.Push([]byte{5, 6, 7}, 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if blocked, err := s.Adv(16); blocked || err != nil || s.Head() != 7 || !s.Exhausted() {
		t.Fatalf("Adv(16) on closed stream = %v, %v (head %d); want the 3-byte rest released", blocked, err, s.Head())
	}
}

// TestInStreamTrimAvailInterleaved interleaves Push and Load with
// non-monotonic availableAt arguments. Push clamps availability to be
// monotone (a page cannot be usable before its predecessors), and trimAvail
// must keep availableAtOffset/BulkAvail consistent as consumed segments are
// dropped.
func TestInStreamTrimAvailInterleaved(t *testing.T) {
	s := NewInStream(4, 8) // 32-byte window
	if err := s.Push([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 100); err != nil {
		t.Fatal(err)
	}
	// Earlier availableAt than the predecessor: clamped up to 100.
	if err := s.Push([]byte{9, 10, 11, 12}, 40); err != nil {
		t.Fatal(err)
	}
	if got := s.BulkAvail(99); got != 0 {
		t.Fatalf("BulkAvail(99) = %d, want 0", got)
	}
	if got := s.BulkAvail(100); got != 12 {
		t.Fatalf("BulkAvail(100) = %d, want 12 (second page clamped to 100)", got)
	}

	// Consume the first page across both segments; trimAvail drops only
	// fully-consumed segments.
	for i := 0; i < 2; i++ {
		if _, ready, st := s.Load(100, 4); st != LoadOK || ready != 100 {
			t.Fatalf("load %d: ready=%v st=%v", i, ready, st)
		}
	}
	if got := s.BulkAvail(100); got != 4 {
		t.Fatalf("BulkAvail after consuming 8 = %d, want 4", got)
	}

	// A later push with yet another backdated time still lands after 100.
	if err := s.Push([]byte{13, 14, 15, 16}, 10); err != nil {
		t.Fatal(err)
	}
	if _, ready, st := s.Load(50, 4); st != LoadOK || ready != 100 {
		t.Fatalf("backdated segment ready=%v st=%v, want 100, OK", ready, st)
	}
	// The final page's bytes were delivered at (clamped) time 100 as well.
	v, ready, st := s.Load(60, 4)
	if st != LoadOK || v != 0x100f0e0d || ready != 100 {
		t.Fatalf("final load = %#x ready=%v st=%v", v, ready, st)
	}
	if s.Buffered() != 0 {
		t.Fatalf("buffered = %d after draining everything", s.Buffered())
	}
}

// TestInStreamBulkAvail covers the compiled-interpreter budget query: only
// segments usable at the query time count, capped at Tail, zero once
// everything is consumed.
func TestInStreamBulkAvail(t *testing.T) {
	s := NewInStream(4, 8)
	if got := s.BulkAvail(1000); got != 0 {
		t.Fatalf("empty stream BulkAvail = %d", got)
	}
	s.Push(make([]byte, 8), 10)
	s.Push(make([]byte, 8), 20)
	s.Push(make([]byte, 4), 30)
	for _, c := range []struct {
		at   sim.Time
		want int64
	}{{5, 0}, {10, 8}, {19, 8}, {20, 16}, {30, 20}, {1000, 20}} {
		if got := s.BulkAvail(c.at); got != c.want {
			t.Fatalf("BulkAvail(%v) = %d, want %d", c.at, got, c.want)
		}
	}
	if _, err := s.Adv(10); err != nil {
		t.Fatal(err)
	}
	if got := s.BulkAvail(1000); got != 10 {
		t.Fatalf("BulkAvail after Adv(10) = %d, want 10", got)
	}
}

// TestInStreamLoadDirectMatchesLoad drives LoadDirect/PeekDirect (the compiled
// fast path) against Load/Peek on a second identical stream: same values,
// same Head movement, same OnFree callbacks — including across a ring wrap.
func TestInStreamLoadDirectMatchesLoad(t *testing.T) {
	mk := func() *InStream {
		s := NewInStream(2, 8) // 16-byte window to force wrapping
		return s
	}
	fast, slow := mk(), mk()
	fastFrees, slowFrees := 0, 0
	fast.OnFree = func() { fastFrees++ }
	slow.OnFree = func() { slowFrees++ }

	feed := func(s *InStream, seed byte) {
		page := make([]byte, 8)
		for i := range page {
			page[i] = seed + byte(i)
		}
		if err := s.Push(page, 0); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		feed(fast, byte(round*8))
		feed(slow, byte(round*8))
		if pf, ps := fast.PeekDirect(2, 4), func() uint32 {
			v, _, _ := slow.Peek(0, 2, 4)
			return v
		}(); pf != ps {
			t.Fatalf("round %d: PeekDirect=%#x Peek=%#x", round, pf, ps)
		}
		for i := 0; i < 2; i++ {
			vf := fast.LoadDirect(4)
			vs, _, st := slow.Load(0, 4)
			if st != LoadOK || vf != vs {
				t.Fatalf("round %d load %d: direct=%#x load=%#x st=%v", round, i, vf, vs, st)
			}
		}
		if fast.Head() != slow.Head() || fast.Tail() != slow.Tail() {
			t.Fatalf("round %d: pointers diverge (%d/%d vs %d/%d)",
				round, fast.Head(), fast.Tail(), slow.Head(), slow.Tail())
		}
	}
	if fastFrees != slowFrees || fastFrees == 0 {
		t.Fatalf("OnFree counts diverge: direct=%d load=%d", fastFrees, slowFrees)
	}
}

// TestOutStreamChunkReuse pins the drain contract the firmware relies on:
// a page drained from a page boundary is a view of the stream's chunk (no
// staging copy), the chunk goes back for the next page, page-aligned
// traffic never holds more than a window's worth of chunks, and steady
// page traffic allocates nothing.
func TestOutStreamChunkReuse(t *testing.T) {
	s := NewOutStream(2, 8)
	appendBytes(s, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	chunk := s.chunks[0]
	d1 := take(s, 8, 0)
	if &d1[0] != &chunk[0] {
		t.Fatal("page-aligned PeekBytes did not return a view of the head chunk")
	}
	appendBytes(s, []byte{9, 8, 7, 6})
	if &s.chunks[0][0] != &chunk[0] {
		t.Fatal("the next page did not reuse the drained chunk")
	}
	if got := take(s, 4, 0); !bytes.Equal(got, []byte{9, 8, 7, 6}) || !bytes.Equal(d1[:4], []byte{9, 8, 7, 6}) {
		t.Fatalf("Drain = %v; earlier view %v not overwritten by the reused chunk", got, d1)
	}

	// Full windows drained a page at a time, as the firmware does.
	s2 := NewOutStream(3, 8)
	page := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	fill := func() {
		for s2.CanAppend(len(page)) {
			appendBytes(s2, page)
		}
		for s2.Buffered() > 0 {
			s2.PeekBytes(8)
			s2.Drain(8, 0)
		}
	}
	fill()
	fill()
	if built := len(s2.chunks) + len(s2.free); built != 3 {
		t.Fatalf("page-aligned traffic built %d chunks for a 3-page window", built)
	}
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Fatalf("steady-state page traffic allocates %.1f per window", allocs)
	}

	// A peek or drain past the end of Head's page stops there.
	s3 := NewOutStream(2, 8)
	appendBytes(s3, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	s3.Drain(6, 0)
	if got := s3.PeekBytes(4); !bytes.Equal(got, []byte{7, 8}) {
		t.Fatalf("PeekBytes(4) at offset 6 of an 8-byte page = %v, want [7 8]", got)
	}
	if s3.Drain(4, 0); s3.Head() != 8 {
		t.Fatalf("Drain(4) at offset 6 of an 8-byte page left Head at %d, want 8", s3.Head())
	}
}
