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

// TestInStreamAdvBeyondBuffered pins that Adv past Tail fails without moving
// Head or corrupting later accesses.
func TestInStreamAdvBeyondBuffered(t *testing.T) {
	s := NewInStream(2, 16)
	if err := s.Push([]byte{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Adv(5); err == nil {
		t.Fatal("Adv(5) with 4 buffered bytes succeeded")
	}
	if err := s.Adv(-1); err == nil {
		t.Fatal("Adv(-1) succeeded")
	}
	if s.Head() != 0 {
		t.Fatalf("failed Adv moved Head to %d", s.Head())
	}
	if err := s.Adv(4); err != nil {
		t.Fatal(err)
	}
	if s.Head() != 4 || s.Buffered() != 0 {
		t.Fatalf("head=%d buffered=%d after full Adv", s.Head(), s.Buffered())
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
	if err := s.Adv(10); err != nil {
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

// TestInStreamCopyOut exercises the bulk read: offsets below Head clamp,
// reads cap at Tail, and wrapped windows reassemble correctly.
func TestInStreamCopyOut(t *testing.T) {
	s := NewInStream(2, 8) // 16-byte window
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	s.Push(data[:8], 0)
	if err := s.Adv(6); err != nil { // free space, Head=6
		t.Fatal(err)
	}
	s.Push(data[8:], 0) // delivered=12, wraps at 16... not yet
	dst := make([]byte, 16)
	if n := s.CopyOut(dst, 6); n != 6 || !bytes.Equal(dst[:n], data[6:12]) {
		t.Fatalf("CopyOut from Head = %d %v", n, dst[:n])
	}
	// Offset below Head clamps to Head.
	if n := s.CopyOut(dst, 0); n != 6 || !bytes.Equal(dst[:n], data[6:12]) {
		t.Fatalf("CopyOut below Head = %d %v", n, dst[:n])
	}
	// Force a ring wrap: consume to 12, push 8 more (12..20 wraps at 16).
	if err := s.Adv(6); err != nil {
		t.Fatal(err)
	}
	more := []byte{20, 21, 22, 23, 24, 25, 26, 27}
	s.Push(more, 0)
	if n := s.CopyOut(dst, 12); n != 8 || !bytes.Equal(dst[:n], more) {
		t.Fatalf("CopyOut across wrap = %d %v", n, dst[:n])
	}
	// Short destination reads a prefix.
	short := make([]byte, 3)
	if n := s.CopyOut(short, 12); n != 3 || !bytes.Equal(short, more[:3]) {
		t.Fatalf("short CopyOut = %d %v", n, short)
	}
}

// TestOutStreamBulkAppend checks the bulk producer path against per-word
// Append: wrap handling, capacity refusal, and OnData notification.
func TestOutStreamBulkAppend(t *testing.T) {
	s := NewOutStream(2, 8) // 16-byte window
	datas := 0
	s.OnData = func() { datas++ }
	if !s.BulkAppend([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
		t.Fatal("BulkAppend within capacity refused")
	}
	if s.BulkAppend(make([]byte, 7)) {
		t.Fatal("BulkAppend beyond capacity accepted")
	}
	if datas != 1 {
		t.Fatalf("OnData fired %d times, want 1", datas)
	}
	got := s.Drain(10, 0)
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
		t.Fatalf("drained %v", got)
	}
	// Next append wraps (appended=10, window 16).
	wrap := []byte{20, 21, 22, 23, 24, 25, 26, 27}
	if !s.BulkAppend(wrap) {
		t.Fatal("wrapping BulkAppend refused")
	}
	if got := s.Drain(8, 0); !bytes.Equal(got, wrap) {
		t.Fatalf("wrapped drain = %v", got)
	}
}

// TestOutStreamScratchReuse pins the PeekBytes/Drain aliasing contract: the
// two calls share one scratch buffer (no per-call allocation), so a second
// call invalidates the first call's slice.
func TestOutStreamScratchReuse(t *testing.T) {
	s := NewOutStream(2, 8)
	s.AppendBytes([]byte{1, 2, 3, 4})
	p1 := s.PeekBytes(4)
	if !bytes.Equal(p1, []byte{1, 2, 3, 4}) {
		t.Fatalf("PeekBytes = %v", p1)
	}
	d1 := s.Drain(4, 0)
	if &p1[0] != &d1[0] {
		t.Fatal("PeekBytes and Drain returned distinct buffers; scratch not reused")
	}
	s.AppendBytes([]byte{9, 8, 7, 6})
	_ = s.Drain(4, 0)
	if !bytes.Equal(p1, []byte{9, 8, 7, 6}) {
		t.Fatalf("earlier slice not overwritten by later Drain: %v", p1)
	}

	// Steady page-size traffic must not allocate after the first call.
	s2 := NewOutStream(2, 8)
	page := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	s2.AppendBytes(page)
	s2.Drain(8, 0)
	allocs := testing.AllocsPerRun(100, func() {
		s2.AppendBytes(page)
		s2.PeekBytes(8)
		s2.Drain(8, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state PeekBytes/Drain allocates %.1f per round", allocs)
	}
}
