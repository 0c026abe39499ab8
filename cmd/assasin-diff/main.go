// Command assasin-diff compares two archived runs and prints a ranked
// "what changed" differential report: duration and throughput ratios,
// per-class core-time deltas, the largest counter movements, guest basic-
// block deltas when either side carries a kernel profile, and — when both
// sides carry timelines — phase-by-phase comparison.
//
// Each side is a JSON file written by assasin-sim or assasin-bench: a flat
// metrics snapshot (-metrics), a sampled timeline (-timeline), a single-run
// attribution report, a guest kernel profile (-kprof-dir profile.json),
// or a BENCH_<exp>.json envelope.
//
// Usage:
//
//	assasin-diff baseline.json assasin-sb.json
//	assasin-diff -json a.json b.json   # machine-readable report
//	assasin-diff a/profile.json b/profile.json  # pc-level hot-block deltas
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"assasin/internal/buildinfo"
	"assasin/internal/telemetry/diff"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, compares the two files and returns
// the exit status, 2 for a usage error and 1 for a file it cannot load.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("assasin-diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the differential report as JSON instead of text")
	version := fs.Bool("version", false, "print version and build information, then exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: assasin-diff [-json] <a.json> <b.json>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Get().Line("assasin-diff"))
		return 0
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "assasin-diff: %v\n", err)
		return 1
	}

	a, err := diff.LoadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	b, err := diff.LoadFile(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	rep := diff.Compare(a, b)
	if *jsonOut {
		if err := rep.WriteJSON(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	fmt.Fprint(stdout, rep.Format())
	return 0
}
