// Command assasin-perf benchmarks the simulator's host performance.
//
//	assasin-perf [-workload all|<name>] [-seed N] [-seconds S] [-trace 0|1] [-out results.json]
//	assasin-perf compare baseline.json candidate.json
//
// The first form runs the workloads in order, each timed repeat in a fresh
// child process, prints every metric by name with its unit, and with
// -trace 1 adds a traced run per workload for the per-layer ledger. A
// one-workload run ends with a one-line JSON summary. It exits 1 if any op
// failed verification. The second form compares two result files and exits
// 1 if the candidate is worse on any metric or either file records a failed
// op.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"assasin/benchmark"
)

func main() {
	if benchmark.IsChild() {
		os.Exit(benchmark.ChildMain())
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("assasin-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", fmt.Sprintf("workload to run: all, or one of %v", benchmark.Workloads()))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 25, "timed budget per workload, in seconds")
	trace := fs.Int("trace", 1, "1 adds the traced run and the per-layer metrics; 0 runs timed repeats only")
	out := fs.String("out", "", "write the result file here")
	dir := fs.String("dir", ".bench_build/traces", "directory for the traced run's profiles and Chrome traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	names := benchmark.Workloads()
	if *workload != "all" {
		names = []string{*workload}
	}
	res, err := benchmark.Run(benchmark.Options{
		Workloads: names, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Scale: 1, Dir: *dir, Stderr: stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "assasin-perf:", err)
		return 1
	}
	benchmark.WriteReport(stdout, res)
	if *out != "" {
		if err := benchmark.WriteResults(*out, res); err != nil {
			fmt.Fprintln(stderr, "assasin-perf:", err)
			return 1
		}
	}
	failed := 0
	for _, wr := range res.Workloads {
		failed += wr.Failed
	}
	if len(res.Workloads) == 1 {
		line, err := benchmark.ResultLine(res.Workloads[0], *trace == 1)
		if err != nil {
			fmt.Fprintln(stderr, "assasin-perf:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func compare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: assasin-perf compare baseline.json candidate.json")
		return 2
	}
	var rs [2]*benchmark.Results
	for i, path := range args {
		r, err := benchmark.ReadResults(path)
		if err != nil {
			fmt.Fprintln(stderr, "assasin-perf:", err)
			return 2
		}
		rs[i] = r
	}
	if benchmark.Compare(stdout, rs[0], rs[1]) {
		return 1
	}
	return 0
}
