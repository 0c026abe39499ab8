package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps, want 1e12", int64(Second))
	}
	if Microsecond != 1000*Nanosecond {
		t.Fatalf("Microsecond = %d, want 1000ns", int64(Microsecond))
	}
}

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		t    Time
		secs float64
	}{
		{0, 0},
		{Second, 1},
		{500 * Millisecond, 0.5},
		{Nanosecond, 1e-9},
	}
	for _, c := range cases {
		if got := c.t.Seconds(); got != c.secs {
			t.Errorf("(%d).Seconds() = %g, want %g", int64(c.t), got, c.secs)
		}
	}
	if got := (1500 * Picosecond).Nanoseconds(); got != 1.5 {
		t.Errorf("Nanoseconds() = %g, want 1.5", got)
	}
	if got := (2500 * Nanosecond).Microseconds(); got != 2.5 {
		t.Errorf("Microseconds() = %g, want 2.5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.500ns"},
		{3 * Microsecond, "3.000us"},
		{42 * Millisecond, "42.000ms"},
		{2 * Second, "2.000s"},
		{MaxTime, "never"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	if MaxT(1, 2) != 2 || MaxT(2, 1) != 2 {
		t.Error("MaxT broken")
	}
	if MinT(1, 2) != 1 || MinT(2, 1) != 1 {
		t.Error("MinT broken")
	}
	prop := func(a, b int64) bool {
		x, y := Time(a), Time(b)
		return MaxT(x, y) >= x && MaxT(x, y) >= y && MinT(x, y) <= x && MinT(x, y) <= y
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestClock(t *testing.T) {
	c := NewClock(1e9) // 1 GHz
	if c.Period != Nanosecond {
		t.Fatalf("1GHz period = %v, want 1ns", c.Period)
	}
	if c.Cycles(5) != 5*Nanosecond {
		t.Errorf("Cycles(5) = %v", c.Cycles(5))
	}
	// Non-integer-ns clock (the adjusted ASSASIN core at ~1.124 GHz).
	adj := Clock{Period: 890 * Picosecond}
	if adj.Cycles(1000) != 890*Nanosecond {
		t.Errorf("adjusted Cycles(1000) = %v", adj.Cycles(1000))
	}
}
