package benchmark

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func stat(better string, bound float64, samples ...float64) *Stat {
	return newStat(Metric{Name: "m", Unit: "s", Better: better, Bound: bound}, samples)
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b *Stat
		want string
	}{
		{"same", stat("lower", 0.1, 10, 10.1, 9.9, 10.2, 9.8), stat("lower", 0.1, 10.3, 10.1, 10.4, 10.2, 10.5), Same},
		{"worse", stat("lower", 0.1, 10, 10.1, 9.9, 10.2, 9.8), stat("lower", 0.1, 12, 12.1, 11.9, 12.2, 11.8), Worse},
		{"better", stat("lower", 0.1, 10, 10.1, 9.9, 10.2, 9.8), stat("lower", 0.1, 8, 8.1, 7.9, 8.2, 7.8), Better},
		{"higher is better", stat("higher", 0.1, 10, 10.1, 9.9, 10.2, 9.8), stat("higher", 0.1, 8, 8.1, 7.9, 8.2, 7.8), Worse},
		// A 30% quartile spread cannot resolve a 20% change...
		{"unresolved", stat("lower", 0.1, 8, 10, 12, 9, 11), stat("lower", 0.1, 10, 12, 14.4, 11, 13), Unresolved},
		// ...unless every run of one side beats every run of the other.
		{"separated", stat("lower", 0.1, 8, 10, 12, 9, 11), stat("lower", 0.1, 16, 18, 20, 17, 19), Worse},
		// A bound of 0 fails any rise from 0.
		{"any rise", stat("lower", 0, 0), stat("lower", 0, 0.001), Worse},
		{"zero stays zero", stat("lower", 0, 0), stat("lower", 0, 0), Same},
	} {
		if _, got := judge(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// results builds a one-workload result file whose wall_s samples are given
// and whose other metrics are identical on both sides. The cases below move
// wall_s by 50%, beyond any bound BENCHMARK.json may declare.
func results(failed int, wall ...float64) *Results {
	wr := &WorkloadResult{Name: "stream-offload", Attempted: 36, Failed: failed, Metrics: make(map[string]*Stat)}
	for _, m := range EndToEnd {
		samples := []float64{1, 1, 1}
		if m.Name == "wall_s" {
			samples = wall
		}
		wr.Metrics[m.Name] = newStat(m, samples)
	}
	wr.Metrics[failFrac.Name] = newStat(failFrac, []float64{float64(failed) / 36})
	return &Results{Seed: 1, Workloads: []*WorkloadResult{wr}}
}

// TestCompareFiles round-trips synthetic result files through the file
// format and checks the verdicts and the failure report.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *Results) *Results {
		path := filepath.Join(dir, name)
		if err := WriteResults(path, r); err != nil {
			t.Fatal(err)
		}
		back, err := ReadResults(path)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	base := write("base.json", results(0, 2.0, 2.02, 1.98, 2.01, 1.99))
	for _, c := range []struct {
		name    string
		cand    *Results
		verdict string
		failed  bool
	}{
		{"same", results(0, 2.05, 2.03, 2.04, 2.06, 2.02), Same, false},
		{"worse", results(0, 3.0, 3.02, 2.98, 3.01, 2.99), Worse, true},
		{"better", results(0, 1.0, 1.02, 0.98, 1.01, 0.99), Better, false},
		{"unresolved", results(0, 1.0, 2.4, 2.0, 4.0, 1.7), Unresolved, false},
		{"failed op", results(1, 2.0, 2.02, 1.98, 2.01, 1.99), Same, true},
	} {
		var out bytes.Buffer
		failed := Compare(&out, base, write(c.name+".json", c.cand))
		if failed != c.failed {
			t.Errorf("%s: Compare reported failure %v, want %v\n%s", c.name, failed, c.failed, out.String())
		}
		var line string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(strings.TrimSpace(l), "wall_s ") {
				line = l
			}
		}
		if !strings.HasSuffix(line, " "+c.verdict) {
			t.Errorf("%s: wall_s line %q, want verdict %s", c.name, line, c.verdict)
		}
	}
}
