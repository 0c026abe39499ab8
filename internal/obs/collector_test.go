package obs

import "testing"

// TestRunIDUnique pins the run id format and that ids do not wrap: run
// 10001 must not reuse run 1's id, or its report, timeline, requests and
// profile would overwrite run 1's.
func TestRunIDUnique(t *testing.T) {
	for n, want := range map[int]string{1: "run-0001", 42: "run-0042", 9999: "run-9999", 10001: "run-10001"} {
		if got := runID(n); got != want {
			t.Errorf("runID(%d) = %q, want %q", n, got, want)
		}
	}
	if runID(10001) == runID(1) {
		t.Errorf("runID(10001) = runID(1) = %q", runID(1))
	}
}
