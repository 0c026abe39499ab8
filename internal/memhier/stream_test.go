package memhier

import (
	"bytes"
	"math/rand"
	"testing"

	"assasin/internal/sim"
)

func TestInStreamBasicFlow(t *testing.T) {
	s := NewInStream(2, 16) // 32-byte window
	if !s.CanPush(16) {
		t.Fatal("fresh stream cannot accept a page")
	}
	page := make([]byte, 16)
	for i := range page {
		page[i] = byte(i + 1)
	}
	if err := s.Push(page, 100); err != nil {
		t.Fatal(err)
	}
	if s.Tail() != 16 || s.Head() != 0 || s.Buffered() != 16 {
		t.Fatalf("pointers: head=%d tail=%d", s.Head(), s.Tail())
	}

	// Load before availability: value ready at the page arrival time.
	v, ready, st := s.Load(50, 4)
	if st != LoadOK {
		t.Fatalf("status = %v", st)
	}
	if v != 0x04030201 {
		t.Fatalf("value = %#x", v)
	}
	if ready != 100 {
		t.Fatalf("ready = %v, want 100", ready)
	}
	// Load after availability: ready immediately.
	_, ready, _ = s.Load(200, 4)
	if ready != 200 {
		t.Fatalf("ready = %v, want 200", ready)
	}
	if s.Head() != 8 {
		t.Fatalf("head = %d", s.Head())
	}
}

func TestInStreamBlockedAndEOS(t *testing.T) {
	s := NewInStream(2, 16)
	if _, _, st := s.Load(0, 4); st != LoadBlocked {
		t.Fatalf("empty open stream: %v, want blocked", st)
	}
	s.Push(make([]byte, 4), 0)
	s.Close()
	if _, _, st := s.Load(0, 4); st != LoadOK {
		t.Fatal("data before EOS not readable")
	}
	if _, _, st := s.Load(0, 4); st != LoadEOS {
		t.Fatal("exhausted closed stream not EOS")
	}
	if !s.Exhausted() {
		t.Error("Exhausted() false")
	}
}

func TestInStreamWindowCapacity(t *testing.T) {
	s := NewInStream(2, 16)
	s.Push(make([]byte, 16), 0)
	s.Push(make([]byte, 16), 0)
	if s.CanPush(16) {
		t.Fatal("full window accepts more")
	}
	if err := s.Push(make([]byte, 16), 0); err == nil {
		t.Fatal("overflow push succeeded")
	}
	// Consuming frees space.
	s.Load(0, 4)
	if !s.CanPush(4) || s.CanPush(16) {
		t.Fatalf("window accounting wrong: buffered=%d", s.Buffered())
	}
}

func TestInStreamRingWrap(t *testing.T) {
	s := NewInStream(2, 8) // 16-byte ring
	var want []byte
	var got []byte
	for round := 0; round < 5; round++ {
		page := make([]byte, 8)
		for i := range page {
			page[i] = byte(round*8 + i)
		}
		if err := s.Push(page, 0); err != nil {
			t.Fatal(err)
		}
		want = append(want, page...)
		for i := 0; i < 8; i++ {
			v, _, st := s.Load(0, 1)
			if st != LoadOK {
				t.Fatalf("round %d load %d: %v", round, i, st)
			}
			got = append(got, byte(v))
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ring data corrupted:\n got %v\nwant %v", got, want)
	}
}

func TestInStreamPeekAdv(t *testing.T) {
	s := NewInStream(2, 16)
	page := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	s.Push(page, 0)
	v, _, st := s.Peek(0, 2, 2)
	if st != LoadOK || v != 0x0403 {
		t.Fatalf("peek = %#x (%v)", v, st)
	}
	if s.Head() != 0 {
		t.Fatal("peek moved head")
	}
	if err := s.Adv(4); err != nil {
		t.Fatal(err)
	}
	v, _, _ = s.Load(0, 1)
	if v != 5 {
		t.Fatalf("after adv, load = %d, want 5", v)
	}
	if err := s.Adv(100); err == nil {
		t.Fatal("Adv beyond tail allowed")
	}
}

func TestInStreamReadAt(t *testing.T) {
	s := NewInStream(4, 8)
	for p := 0; p < 3; p++ {
		page := make([]byte, 8)
		for i := range page {
			page[i] = byte(p*8 + i)
		}
		s.Push(page, sim.Time(p)*100)
	}
	// Absolute reads anywhere in the window.
	v, ready, st := s.ReadAt(0, 10, 1)
	if st != LoadOK || v != 10 {
		t.Fatalf("ReadAt(10) = %d (%v)", v, st)
	}
	if ready != 100 { // byte 10 is in page 1, available at 100
		t.Fatalf("ReadAt ready = %v", ready)
	}
	// Beyond delivered: blocked.
	if _, _, st := s.ReadAt(0, 24, 1); st != LoadBlocked {
		t.Fatalf("ReadAt beyond tail: %v", st)
	}
	// Before head after release: EOS (kernel bug signal).
	s.Adv(8)
	if _, _, st := s.ReadAt(0, 4, 1); st != LoadEOS {
		t.Fatalf("ReadAt before head: %v", st)
	}
}

func TestInStreamAvailabilityMonotone(t *testing.T) {
	s := NewInStream(4, 8)
	s.Push(make([]byte, 8), 500)
	s.Push(make([]byte, 8), 100) // earlier than predecessor: clamped to 500
	_, ready, _ := s.ReadAt(0, 12, 1)
	if ready != 500 {
		t.Fatalf("availability not monotone: %v", ready)
	}
}

func TestInStreamCallbacks(t *testing.T) {
	s := NewInStream(2, 8)
	pushes, frees := 0, 0
	s.OnPush = func(sim.Time) { pushes++ }
	s.OnFree = func() { frees++ }
	s.Push(make([]byte, 8), 0)
	s.Load(0, 4)
	s.Adv(4)
	if pushes != 1 || frees != 2 {
		t.Fatalf("callbacks: pushes=%d frees=%d", pushes, frees)
	}
}

func TestOutStreamAppendDrain(t *testing.T) {
	s := NewOutStream(2, 8) // 16 bytes
	if !s.Append(0x04030201, 4) {
		t.Fatal("append failed")
	}
	if !s.AppendBytes([]byte{9, 9}) {
		t.Fatal("append bytes failed")
	}
	if s.Buffered() != 6 {
		t.Fatalf("buffered = %d", s.Buffered())
	}
	got := s.Drain(100, 0)
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 9, 9}) {
		t.Fatalf("drained = %v", got)
	}
	if s.Buffered() != 0 {
		t.Fatal("drain did not consume")
	}
}

func TestOutStreamFullBlocks(t *testing.T) {
	s := NewOutStream(1, 8)
	for i := 0; i < 2; i++ {
		if !s.Append(0, 4) {
			t.Fatal("append within capacity failed")
		}
	}
	if s.Append(0, 4) {
		t.Fatal("append beyond capacity succeeded")
	}
	freed := sim.Time(-1)
	s.OnSpace = func(at sim.Time) { freed = at }
	s.Drain(4, 777)
	if freed != 777 {
		t.Fatalf("OnSpace at %v", freed)
	}
	if !s.Append(0, 4) {
		t.Fatal("append after drain failed")
	}
}

func TestOutStreamRingWrapLong(t *testing.T) {
	s := NewOutStream(2, 8)
	rng := rand.New(rand.NewSource(5))
	var want, got []byte
	for i := 0; i < 200; i++ {
		b := byte(rng.Intn(256))
		if !s.Append(uint32(b), 1) {
			t.Fatal("unexpected full")
		}
		want = append(want, b)
		if s.Buffered() > 12 {
			got = append(got, s.Drain(8, 0)...)
		}
	}
	got = append(got, s.Drain(1<<20, 0)...)
	if !bytes.Equal(got, want) {
		t.Fatal("out ring corrupted")
	}
}

func TestStreamBufferConstruction(t *testing.T) {
	sb := NewStreamBuffer(8, 2, 4, 16<<10) // the paper's S=8, P=2, 16 KiB pages; deeper output
	if len(sb.In) != 8 || len(sb.Out) != 8 {
		t.Fatal("slot count wrong")
	}
	if sb.In[0].WindowBytes() != 32<<10 {
		t.Fatalf("window = %d, want 32 KiB", sb.In[0].WindowBytes())
	}
	if sb.Out[7].WindowBytes() != 64<<10 {
		t.Fatalf("output window = %d, want 64 KiB", sb.Out[7].WindowBytes())
	}
	// Total input capacity = 8 slots × 2 pages × 16 KiB = 256 KiB... the
	// paper's 64 KiB I is reached with smaller windows; geometry is up to
	// the ssd package. Here just verify independence of slots.
	sb.In[0].Push(make([]byte, 16), 0)
	if sb.In[1].Buffered() != 0 {
		t.Error("slots share state")
	}
}
