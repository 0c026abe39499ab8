package runpool

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderingMatchesSequential(t *testing.T) {
	n := 100
	fn := func(i int) (int, error) {
		// Finish out of submission order to stress result placement.
		time.Sleep(time.Duration((i*7)%5) * time.Millisecond)
		return i * i, nil
	}
	seq, err := Map(1, n, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(8, n, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("index %d: sequential %d vs parallel %d", i, seq[i], par[i])
		}
	}
}

func TestRunExecutesEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 200
		counts := make([]atomic.Int32, n)
		if err := Run(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	errAt := func(bad map[int]bool) func(int) error {
		return func(i int) error {
			if bad[i] {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		}
	}
	// Every job fails: the reported error must be job 0's regardless of
	// scheduling.
	for _, workers := range []int{1, 4} {
		err := Run(workers, 50, errAt(map[int]bool{0: true, 1: true, 2: true}))
		if err == nil || err.Error() != "job 0 failed" {
			t.Fatalf("workers=%d: err = %v, want job 0 failed", workers, err)
		}
	}
}

func TestRunSequentialStopsAtFirstError(t *testing.T) {
	ran := 0
	sentinel := errors.New("boom")
	err := Run(1, 10, func(i int) error {
		ran++
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if ran != 4 {
		t.Fatalf("sequential run executed %d jobs after error, want 4", ran)
	}
}

func TestRunZeroJobs(t *testing.T) {
	if err := Run(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

// TestPoolSoak is the -race soak of the harness: many short jobs hammering
// the claim cursor and the shared result slice from every worker.
func TestPoolSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	workers := runtime.GOMAXPROCS(0) * 2
	for round := 0; round < 20; round++ {
		n := 500
		out, err := Map(workers, n, func(i int) (int64, error) {
			return int64(round)<<32 | int64(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if want := int64(round)<<32 | int64(i); v != want {
				t.Fatalf("round %d index %d: %d != %d", round, i, v, want)
			}
		}
	}
}

func TestSequentialOverride(t *testing.T) {
	cases := []struct {
		requested   int
		forcedBy    []string
		wantWorkers int
		wantWarn    bool
	}{
		{8, []string{"-trace"}, 1, true},
		{8, []string{"-trace", "-metrics"}, 1, true},
		{1, []string{"-trace"}, 1, false},
		{8, nil, 8, false},
	}
	for _, c := range cases {
		got, warn := SequentialOverride(c.requested, c.forcedBy...)
		if got != c.wantWorkers || (warn != "") != c.wantWarn {
			t.Errorf("SequentialOverride(%d, %v) = (%d, %q)", c.requested, c.forcedBy, got, warn)
		}
		for _, f := range c.forcedBy {
			if c.wantWarn && !strings.Contains(warn, f) {
				t.Errorf("warning %q does not name forcing flag %s", warn, f)
			}
		}
		if c.wantWarn && !strings.Contains(warn, "-parallel 8") {
			t.Errorf("warning %q does not name the overridden -parallel value", warn)
		}
	}
}

// TestSetLoggerRace drives a parallel pool with a live debug logger under
// -race: worker-claim logging must be safe from every goroutine.
func TestSetLoggerRace(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	h := slog.NewTextHandler(lockedWriter{&mu, &buf}, &slog.HandlerOptions{Level: slog.LevelDebug})
	SetLogger(slog.New(h))
	defer SetLogger(nil)
	if err := Run(4, 64, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(buf.String(), "runpool: job claimed") {
		t.Error("no claim events logged")
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
