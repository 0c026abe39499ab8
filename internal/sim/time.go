// Package sim provides the discrete-event simulation kernel underlying the
// ASSASIN SSD and core models: simulated time, an event queue, bandwidth
// servers for shared links and memories, and a conservative process
// scheduler that co-simulates instruction-interpreting cores with the
// event-driven SSD world.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in integer picoseconds. Picosecond resolution lets
// clock periods that are not whole nanoseconds (e.g. the 890 ps
// timing-adjusted ASSASIN core clock from Fig. 20) be represented exactly.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time. It doubles as the
// "never" sentinel for components that currently have nothing scheduled.
const MaxTime Time = math.MaxInt64

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds converts t to floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String renders the time with an adaptive unit, for logs and test failures.
func (t Time) String() string {
	switch {
	case t == MaxTime:
		return "never"
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// MaxT returns the later of two times.
func MaxT(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinT returns the earlier of two times.
func MinT(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Clock describes a fixed-frequency clock domain.
type Clock struct {
	// Period is the duration of one cycle.
	Period Time
}

// NewClock returns a clock with the given frequency in Hz.
func NewClock(hz float64) Clock {
	return Clock{Period: Time(float64(Second) / hz)}
}

// Cycles converts a cycle count to a duration in this clock domain.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.Period }
