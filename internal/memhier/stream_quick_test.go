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
// capacities.
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

// pushModel is the byte FIFO an InStream must behave as: every byte pushed,
// in order, and where each push ended.
type pushModel struct {
	bytes []byte
	ends  []int64
}

// word returns the little-endian width-byte word at off.
func (m *pushModel) word(off int64, width int) uint32 {
	var v uint32
	for i := 0; i < width; i++ {
		v |= uint32(m.bytes[off+int64(i)]) << (8 * i)
	}
	return v
}

// oddStraddle reports whether [off, off+width) crosses the end of an
// odd-length push.
func (m *pushModel) oddStraddle(off int64, width int) bool {
	for i, e := range m.ends {
		start := int64(0)
		if i > 0 {
			start = m.ends[i-1]
		}
		if off < e && e < off+int64(width) && (e-start)%2 == 1 {
			return true
		}
	}
	return false
}

// TestInStreamModelBased drives an InStream with random interleavings of
// Push / Load / Peek / Adv / ReadAt against a byte FIFO model and checks
// every value and pointer agrees. The window holds pushes by reference, so
// the trials make sure the segment-crossing paths run: 2- and 4-byte words
// that straddle pushes of odd lengths, peeks past Head's segment into later
// ones, and a full ReadAt read-back right after the availability list is
// compacted. After every step BulkAvail must equal the walk from the trim
// point, at a query clock that mostly moves forward, as a core's does, and
// now and then steps back; some trials compact the availability list under
// the resume index. Last, a Push into a warm stream allocates nothing.
func TestInStreamModelBased(t *testing.T) {
	compactions, readsAfterCompaction, laterPeeks := 0, 0, 0
	straddles := map[int]int{}
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		// A separate source for the query clock keeps the op sequences of
		// rng unchanged.
		clock := rand.New(rand.NewSource(int64(500 + trial)))
		var at sim.Time
		pages, pageSize := modelGeometry(rng)
		s := NewInStream(pages, pageSize)

		var model pushModel
		var consumed int64  // model head
		var delivered int64 // model tail
		produced := byte(0)

		// check compares a word the stream returned with the model and
		// counts the odd-length pushes it straddled.
		check := func(what string, step int, off int64, w int, v uint32, st LoadStatus) {
			t.Helper()
			if st != LoadOK || v != model.word(off, w) {
				t.Fatalf("trial %d step %d: %s(%d, width %d) = %#x, %v; model %#x", trial, step, what, off, w, v, st, model.word(off, w))
			}
			if w > 1 && model.oddStraddle(off, w) {
				straddles[w]++
			}
		}

		for step := 0; step < 600; step++ {
			head0, scan0 := s.availHead, s.scan
			switch rng.Intn(6) {
			case 0: // push a chunk of up to two pages, often a few bytes
				n := 1 + rng.Intn(2*pageSize)
				if rng.Intn(3) == 0 {
					n = 1 + rng.Intn(7)
				}
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
				if err := s.Push(chunk, sim.Time(step)); err != nil {
					t.Fatal(err)
				}
				model.bytes = append(model.bytes, chunk...)
				delivered += int64(n)
				model.ends = append(model.ends, delivered)
			case 1: // load
				w := []int{1, 2, 4}[rng.Intn(3)]
				v, _, st := s.Load(0, w)
				if delivered-consumed < int64(w) {
					if st == LoadOK {
						t.Fatal("load succeeded with insufficient data")
					}
					continue
				}
				check("Load", step, consumed, w, v, st)
				consumed += int64(w)
			case 2: // peek anywhere in the buffered bytes
				w := []int{1, 2, 4}[rng.Intn(3)]
				if delivered-consumed < int64(w) {
					continue
				}
				off := int64(rng.Intn(int(delivered-consumed) - w + 1))
				v, _, st := s.Peek(0, off, w)
				check("Peek", step, consumed+off, w, v, st)
				if consumed+off >= s.avail[s.availHead].End {
					laterPeeks++
				}
			case 3: // adv
				if delivered == consumed {
					continue
				}
				n := int64(1 + rng.Intn(int(delivered-consumed)))
				if _, err := s.Adv(n); err != nil {
					t.Fatal(err)
				}
				consumed += n
			case 4: // readAt
				w := []int{1, 2, 4}[rng.Intn(3)]
				if delivered-consumed < int64(w) {
					continue
				}
				off := consumed + int64(rng.Intn(int(delivered-consumed)-w+1))
				v, _, st := s.ReadAt(0, off, w)
				check("ReadAt", step, off, w, v, st)
			case 5: // read back everything buffered, in every width
				for _, w := range []int{1, 2, 4} {
					for off := consumed; off+int64(w) <= delivered; off++ {
						v, _, st := s.ReadAt(0, off, w)
						check("ReadAt", step, off, w, v, st)
					}
				}
			}
			if s.Head() != consumed || s.Tail() != delivered {
				t.Fatalf("pointer drift: got (%d,%d) want (%d,%d)", s.Head(), s.Tail(), consumed, delivered)
			}
			if s.availHead < head0 {
				// Just compacted: every buffered word must still read back.
				readsAfterCompaction++
				for off := consumed; off+4 <= delivered; off++ {
					v, _, st := s.ReadAt(0, off, 4)
					check("ReadAt after compaction", step, off, 4, v, st)
				}
				if scan0 > head0 {
					compactions++ // compacted with the resume index past the trim point
				}
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
		}
	}
	if compactions == 0 {
		t.Fatal("no trial compacted the availability list under a live resume index")
	}
	if readsAfterCompaction == 0 || laterPeeks == 0 || straddles[2] == 0 || straddles[4] == 0 {
		t.Fatalf("paths not exercised: %d read-backs after a compaction, %d peeks into later segments, %d 2-byte and %d 4-byte words straddling odd-length pushes",
			readsAfterCompaction, laterPeeks, straddles[2], straddles[4])
	}

	// Once avail has grown to its working set, a push (and the Adv that
	// frees its room) allocates nothing: the page is held, not copied.
	s := NewInStream(2, 16)
	page := make([]byte, 16)
	for i := 0; i < 200; i++ {
		if err := s.Push(page, 0); err != nil {
			t.Fatal(err)
		}
		s.Adv(16)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Push(page, 0); err != nil {
			t.Fatal(err)
		}
		s.Adv(16)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push allocates %.1f per page", allocs)
	}
}

// keptView is a drained slice of a kept stream and the bytes it held when
// drained.
type keptView struct{ got, want []byte }

// TestOutStreamModelBased checks Append/PeekBytes/Drain against a byte
// queue, and the chunk layout under them: a peek returns a view of the head
// chunk (no copy) and a peek or drain stops at the end of Head's page, a
// chunk Head has passed is reused (a trial never holds more than a window's
// worth of chunks plus the one an unaligned Head leaves), and appends
// straddle chunk boundaries. Every other trial sets Keep: there every page
// gets a chunk of its own, none is reused, and a drained slice never
// changes after later appends and drains.
func TestOutStreamModelBased(t *testing.T) {
	views, clamped, straddles, reused, keptViews := 0, 0, 0, 0, 0
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		pages, pageSize := modelGeometry(rng)
		s := NewOutStream(pages, pageSize)
		s.Keep = trial%2 == 1
		var model []byte
		var drained []byte
		var want []byte
		var kept []keptView
		produced := byte(0)
		chunks := map[*byte]bool{} // every chunk the stream ever held
		for step := 0; step < 600; step++ {
			switch rng.Intn(4) {
			case 0: // one word
				w := []int{1, 2, 4}[rng.Intn(3)]
				var v uint32
				tmp := make([]byte, w)
				for i := range tmp {
					tmp[i] = produced + byte(i)
					v |= uint32(tmp[i]) << (8 * i)
				}
				ok := s.CanAppend(w)
				if off := int(s.Tail() % int64(pageSize)); ok && off > 0 && off+w > pageSize {
					straddles++
				}
				if got := s.Append(v, w); got != ok {
					t.Fatalf("Append = %v, want %v", got, ok)
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
				if got := appendBytes(s, tmp); got != ok {
					t.Fatalf("appendBytes = %v, want %v", got, ok)
				}
				if ok {
					produced += byte(len(tmp))
					model = append(model, tmp...)
					want = append(want, tmp...)
				}
			case 2: // drain any length: it stops at the end of Head's page
				if len(model) == 0 {
					continue
				}
				n := 1 + rng.Intn(len(model))
				h := int(s.Head() % int64(pageSize))
				m := min(n, pageSize-h)
				head := &s.chunks[0][h]
				got := take(s, n, 0)
				if &got[0] != head || !bytes.Equal(got, model[:m]) {
					t.Fatalf("drain of %d at page offset %d = %v (view %v), model %v", n, h, got, &got[0] == head, model[:m])
				}
				if m < n {
					clamped++
				}
				drained = append(drained, got...)
				if s.Keep {
					kept = append(kept, keptView{got, bytes.Clone(got)})
				}
				model = model[m:]
			case 3: // drain to the next page boundary, as the firmware does
				h := int(s.Head() % int64(pageSize))
				n := pageSize - h
				if len(model) < n {
					continue
				}
				head := &s.chunks[0][h]
				got := take(s, n, 0)
				if &got[0] != head || !bytes.Equal(got, model[:n]) {
					t.Fatalf("page drain = %v (view %v), model %v", got, &got[0] == head, model[:n])
				}
				views++
				drained = append(drained, got...)
				if s.Keep {
					kept = append(kept, keptView{got, bytes.Clone(got)})
				}
				model = model[n:]
			}
			for _, c := range s.chunks {
				chunks[&c[0]] = true
			}
			// Without Keep every chunk built is live or free; with Keep
			// each page touched has a chunk of its own and none is freed.
			touched := int((s.Tail() + int64(pageSize) - 1) / int64(pageSize))
			reuse := len(chunks) == len(s.chunks)+len(s.free)
			if s.Keep {
				reuse = len(s.free) == 0 && len(chunks) == touched
			}
			if int(s.Tail()-s.Head()) != len(model) || len(s.chunks) > pages+1 || !reuse {
				t.Fatalf("trial %d step %d (keep %v): head %d tail %d with %d bytes modelled; %d live and %d free chunks of %d built, window %d pages",
					trial, step, s.Keep, s.Head(), s.Tail(), len(model), len(s.chunks), len(s.free), len(chunks), pages)
			}
			for i, k := range kept {
				if !bytes.Equal(k.got, k.want) {
					t.Fatalf("trial %d step %d: kept drain %d changed to %v, drained as %v", trial, step, i, k.got, k.want)
				}
			}
		}
		keptViews += len(kept)
		if touched := int((s.Tail() + int64(pageSize) - 1) / int64(pageSize)); !s.Keep && len(chunks) < touched {
			reused++
		}
		if !s.Keep && len(chunks) > pages+1 {
			t.Fatalf("trial %d: %d chunks built for a %d-page window", trial, len(chunks), pages)
		}
		drained = append(drained, drainAll(s)...)
		if !bytes.Equal(drained, want) {
			t.Fatalf("trial %d: drained bytes diverge from appended", trial)
		}
	}
	if views == 0 || clamped == 0 || straddles == 0 || reused == 0 || keptViews == 0 {
		t.Fatalf("paths not exercised: %d page views, %d drains stopped at a page end, %d straddling appends, %d trials reusing chunks, %d kept drains",
			views, clamped, straddles, reused, keptViews)
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
