package gf

import (
	"testing"
	"testing/quick"
)

func TestMulMatchesSlow(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), mulSlow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	// Commutativity, associativity, distributivity (quick-checked).
	comm := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	assoc := func(a, b, c byte) bool { return Mul(a, Mul(b, c)) == Mul(Mul(a, b), c) }
	dist := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
	for name, prop := range map[string]any{"comm": comm, "assoc": assoc, "dist": dist} {
		if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		if Mul(byte(a), 1) != byte(a) {
			t.Fatalf("a*1 != a for %d", a)
		}
		if Mul(byte(a), 0) != 0 {
			t.Fatalf("a*0 != 0 for %d", a)
		}
		if Add(byte(a), byte(a)) != 0 {
			t.Fatalf("a+a != 0 for %d", a)
		}
	}
}

// TestInverse pins that every nonzero element has the inverse the tables
// give it, Generator^(255-log a).
func TestInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Exp(255 - Log(byte(a)))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("a * Exp(255-Log(a)) != 1 for %d (inv=%d)", a, inv)
		}
	}
}

func TestLogOfZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Log(0) did not panic")
		}
	}()
	Log(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(Log(byte(a))) != byte(a) {
			t.Fatalf("Exp(Log(%d)) != %d", a, a)
		}
	}
	if Exp(255) != Exp(0) {
		t.Error("Exp period is not 255")
	}
	if Exp(-1) != Exp(254) {
		t.Error("negative Exp broken")
	}
}

func TestGeneratorPowersCoverField(t *testing.T) {
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		seen[Exp(i)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator covers %d elements, want 255", len(seen))
	}
	if seen[0] {
		t.Error("generator power hit zero")
	}
}

func TestMulSlice(t *testing.T) {
	src := []byte{0, 1, 2, 0x80, 0xff}
	dst := []byte{5, 5, 5, 5, 5}
	want := make([]byte, 5)
	for i := range src {
		want[i] = dst[i] ^ Mul(3, src[i])
	}
	MulSlice(3, src, dst)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("MulSlice[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

func TestMulSliceSpecialCoefficients(t *testing.T) {
	src := []byte{1, 2, 3}
	dst := []byte{9, 9, 9}
	MulSlice(0, src, dst) // no-op
	if dst[0] != 9 || dst[1] != 9 || dst[2] != 9 {
		t.Error("MulSlice(0) changed dst")
	}
	MulSlice(1, src, dst) // pure XOR
	if dst[0] != 8 || dst[1] != 11 || dst[2] != 10 {
		t.Errorf("MulSlice(1) = %v", dst)
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	MulSlice(2, []byte{1}, []byte{1, 2})
}

func TestTablesLayout(t *testing.T) {
	exp, log := Tables()
	if exp[0] != 1 {
		t.Error("exp[0] != 1")
	}
	for a := 1; a < 256; a++ {
		if exp[log[a]] != byte(a) {
			t.Fatalf("table round trip failed at %d", a)
		}
	}
}
