package memhier

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"assasin/internal/sim"
)

// modelGeometry draws a window geometry for the model-based tests: pages of
// 8, 16 or 32 bytes and window depths that include non-power-of-two
// capacities (the modulo path) and windows deep enough for the ring to grow
// in two ×8 steps (one page, 8 pages, then the cap).
func modelGeometry(rng *rand.Rand) (pages, pageSize int) {
	return []int{2, 3, 4, 5, 9, 12, 16, 70}[rng.Intn(8)], 8 << rng.Intn(3)
}

// refBulkAvail is BulkAvail without its resume index: a walk over every
// live availability segment from the trim point.
func refBulkAvail(s *InStream, at sim.Time) int64 {
	end := s.consumed
	for _, seg := range s.avail[s.availHead:] {
		if seg.At > at {
			break
		}
		end = seg.End
	}
	return end - s.consumed
}

// TestInStreamModelBased drives an InStream with random interleavings of
// Push / Load / Peek / Adv / ReadAt against a simple FIFO model and
// against a twin whose ring is allocated at full capacity up front, and
// checks every observable agrees: the growing ring must behave exactly like
// a full-capacity one. After every step BulkAvail must equal the walk from
// the trim point, at a query clock that mostly moves forward, as a core's
// does, and now and then steps back; some trials compact the availability
// list under the resume index.
func TestInStreamModelBased(t *testing.T) {
	compactions := 0
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		// A separate source for the query clock keeps the op sequences of
		// rng unchanged.
		clock := rand.New(rand.NewSource(int64(500 + trial)))
		var at sim.Time
		pages, pageSize := modelGeometry(rng)
		s := NewInStream(pages, pageSize)
		full := NewInStream(pages, pageSize)
		full.ring = make([]byte, full.capBytes)

		var model []byte    // bytes pushed, in order
		var consumed int64  // model head
		var delivered int64 // model tail
		produced := byte(0)
		grown := 0

		for step := 0; step < 600; step++ {
			head0, scan0 := s.availHead, s.scan
			switch rng.Intn(6) {
			case 0: // push a chunk of up to two pages
				n := 1 + rng.Intn(2*pageSize)
				if !s.CanPush(n) {
					if err := s.Push(make([]byte, n), 0); err == nil {
						t.Fatal("overfull push accepted")
					}
					continue
				}
				chunk := make([]byte, n)
				for i := range chunk {
					chunk[i] = produced
					produced++
				}
				before := len(s.ring)
				if err := s.Push(chunk, sim.Time(step)); err != nil {
					t.Fatal(err)
				}
				if err := full.Push(chunk, sim.Time(step)); err != nil {
					t.Fatal(err)
				}
				if len(s.ring) != before {
					grown++
				}
				model = append(model, chunk...)
				delivered += int64(n)
			case 1: // load
				w := []int{1, 2, 4}[rng.Intn(3)]
				v, ready, st := s.Load(0, w)
				fv, fready, fst := full.Load(0, w)
				if v != fv || ready != fready || st != fst {
					t.Fatalf("trial %d step %d: load = (%#x,%d,%v), full ring (%#x,%d,%v)", trial, step, v, ready, st, fv, fready, fst)
				}
				if delivered-consumed < int64(w) {
					if st == LoadOK {
						t.Fatal("load succeeded with insufficient data")
					}
					continue
				}
				if st != LoadOK {
					t.Fatalf("load failed with %d buffered", delivered-consumed)
				}
				var want uint32
				for i := 0; i < w; i++ {
					want |= uint32(model[consumed+int64(i)]) << (8 * i)
				}
				if v != want {
					t.Fatalf("trial %d step %d: load = %#x, want %#x", trial, step, v, want)
				}
				consumed += int64(w)
			case 2: // peek
				if delivered-consumed < 2 {
					continue
				}
				off := int64(rng.Intn(int(delivered - consumed - 1)))
				w := []int{1, 2}[rng.Intn(2)]
				v, _, st := s.Peek(0, off, w)
				if fv, _, _ := full.Peek(0, off, w); st != LoadOK || v != fv {
					t.Fatalf("peek = %#x, %v; full ring %#x", v, st, fv)
				}
				if byte(v) != model[consumed+off] {
					t.Fatal("peek value wrong")
				}
			case 3: // adv
				if delivered == consumed {
					continue
				}
				n := int64(1 + rng.Intn(int(delivered-consumed)))
				if _, err := s.Adv(n); err != nil {
					t.Fatal(err)
				}
				if _, err := full.Adv(n); err != nil {
					t.Fatal(err)
				}
				consumed += n
			case 4: // readAt
				if delivered == consumed {
					continue
				}
				off := consumed + int64(rng.Intn(int(delivered-consumed)))
				v, _, st := s.ReadAt(0, off, 1)
				if st != LoadOK {
					t.Fatalf("ReadAt(%d) failed with head=%d tail=%d", off, consumed, delivered)
				}
				if byte(v) != model[off] {
					t.Fatal("ReadAt value wrong")
				}
			case 5: // read back everything buffered, across any ring wrap
				for off := consumed; off < delivered; off++ {
					v, _, st := s.ReadAt(0, off, 1)
					fv, _, _ := full.ReadAt(0, off, 1)
					if st != LoadOK || v != fv || byte(v) != model[off] {
						t.Fatalf("ReadAt(%d) = %#x, %v; full ring %#x, model %#x", off, v, st, fv, model[off])
					}
				}
			}
			if s.Head() != consumed || s.Tail() != delivered {
				t.Fatalf("pointer drift: got (%d,%d) want (%d,%d)", s.Head(), s.Tail(), consumed, delivered)
			}
			// Pushes become usable at their step number; the clock trails
			// them by up to 16 steps, and one step in eight jumps back.
			if clock.Intn(8) == 0 {
				at = max(sim.Time(step-clock.Intn(64)), 0)
			} else {
				at = max(at, sim.Time(step-clock.Intn(16)))
			}
			if got, want := s.BulkAvail(at), refBulkAvail(s, at); got != want {
				t.Fatalf("trial %d step %d: BulkAvail(%d) = %d, walk from the trim point %d", trial, step, at, got, want)
			}
			if s.availHead < head0 && scan0 > head0 {
				compactions++ // compacted with the resume index past the trim point
			}
			if len(s.ring) > s.capBytes {
				t.Fatalf("ring grew to %d past capacity %d", len(s.ring), s.capBytes)
			}
		}
		if pages > 8 && grown < 2 {
			t.Fatalf("trial %d: %d-page window grew %d times, want at least two growth steps", trial, pages, grown)
		}
	}
	if compactions == 0 {
		t.Fatal("no trial compacted the availability list under a live resume index")
	}
}

// TestOutStreamModelBased checks Append/Drain against a byte
// queue and against a twin whose ring is allocated at full capacity.
func TestOutStreamModelBased(t *testing.T) {
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		pages, pageSize := modelGeometry(rng)
		s := NewOutStream(pages, pageSize)
		full := NewOutStream(pages, pageSize)
		full.ring = make([]byte, full.capBytes)
		var model []byte
		var drained []byte
		var want []byte
		produced := byte(0)
		grown := 0
		for step := 0; step < 600; step++ {
			before := len(s.ring)
			switch rng.Intn(3) {
			case 0: // one word
				w := []int{1, 2, 4}[rng.Intn(3)]
				var v uint32
				tmp := make([]byte, w)
				for i := range tmp {
					tmp[i] = produced + byte(i)
					v |= uint32(tmp[i]) << (8 * i)
				}
				ok := s.CanAppend(w)
				if got, fgot := s.Append(v, w), full.Append(v, w); got != ok || fgot != ok {
					t.Fatalf("Append = %v (full ring %v), want %v", got, fgot, ok)
				}
				if ok {
					produced += byte(w)
					model = append(model, tmp...)
					want = append(want, tmp...)
				}
			case 1: // a chunk of up to two pages
				tmp := make([]byte, 1+rng.Intn(2*pageSize))
				for i := range tmp {
					tmp[i] = produced + byte(i)
				}
				ok := s.CanAppend(len(tmp))
				if got, fgot := appendBytes(s, tmp), appendBytes(full, tmp); got != ok || fgot != ok {
					t.Fatalf("appendBytes = %v (full ring %v), want %v", got, fgot, ok)
				}
				if ok {
					produced += byte(len(tmp))
					model = append(model, tmp...)
					want = append(want, tmp...)
				}
			case 2:
				if len(model) == 0 {
					continue
				}
				n := 1 + rng.Intn(len(model))
				if got, fgot := s.PeekBytes(n), full.PeekBytes(n); !bytes.Equal(got, fgot) {
					t.Fatalf("PeekBytes(%d) = %v, full ring %v", n, got, fgot)
				}
				got := s.Drain(n, 0)
				if fgot := full.Drain(n, 0); !bytes.Equal(got, fgot) {
					t.Fatalf("Drain(%d) = %v, full ring %v", n, got, fgot)
				}
				drained = append(drained, got...)
				model = model[len(got):]
			}
			if len(s.ring) != before {
				grown++
			}
			if s.Tail() != full.Tail() || s.Head() != full.Head() || len(s.ring) > s.capBytes {
				t.Fatalf("pointer drift: (%d,%d) vs full ring (%d,%d), ring %d of %d",
					s.Head(), s.Tail(), full.Head(), full.Tail(), len(s.ring), s.capBytes)
			}
		}
		drained = append(drained, s.Drain(1<<30, 0)...)
		if !bytes.Equal(drained, want) {
			t.Fatalf("trial %d: drained bytes diverge from appended", trial)
		}
		if pages > 8 && grown < 2 {
			t.Fatalf("trial %d: %d-page window grew %d times, want at least two growth steps", trial, pages, grown)
		}
	}
}

// TestInStreamAvailabilityMonotoneQuick: availability times never decrease
// along the stream regardless of push times.
func TestInStreamAvailabilityMonotoneQuick(t *testing.T) {
	prop := func(times []uint16) bool {
		if len(times) == 0 || len(times) > 64 {
			return true
		}
		s := NewInStream(len(times)+1, 4)
		var prev sim.Time
		for _, raw := range times {
			if err := s.Push([]byte{1, 2, 3, 4}, sim.Time(raw)*sim.Microsecond); err != nil {
				return false
			}
			_, ready, st := s.Load(0, 4)
			if st != LoadOK || ready < prev {
				return false
			}
			prev = ready
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
