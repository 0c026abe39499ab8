package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"assasin/internal/experiments"
)

// runServe runs the command in process and returns its exit status, stdout
// and stderr.
func runServe(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestCLIRejectsBadNumbers checks that input the experiments cannot use
// returns 2 with the error assasin-bench and assasin-sim print for it,
// before the server listens. Every row runs the instant table4 with -once,
// so a row the command wrongly accepts ends with exit 0 instead of hanging.
func TestCLIRejectsBadNumbers(t *testing.T) {
	for _, row := range []struct {
		args []string
		want string
	}{
		{[]string{"-mb", "1e300"}, "-mb 1e+300 is too large"},
		{[]string{"-mb", "1e12"}, "-mb 1e+12 is too large"},
		{[]string{"-mb", "NaN"}, "-mb must be a finite number, got NaN"},
		{[]string{"-requests", "-3"}, "-requests must be >= 0, got -3"},
		{[]string{"-log-level", "loud"}, `obs: unknown log level "loud"`},
		{[]string{"-exp", "fig99"}, `unknown experiment "fig99"`},
	} {
		args := append([]string{"-once", "-quick", "-exp", "table4"}, row.args...)
		code, stdout, stderr := runServe(args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", row.args, code, stdout)
		}
		if !strings.HasPrefix(stderr, "assasin-serve: "+row.want) || strings.Contains(stderr, "panic:") {
			t.Errorf("%v: stderr %q, want %q", row.args, stderr, "assasin-serve: "+row.want)
		}
		if strings.Contains(stdout, "listening") {
			t.Errorf("%v: the server listened before rejecting the flags:\n%s", row.args, stdout)
		}
	}
}

// TestCLIHelpSharesFlags checks that -h lists the flags assasin-serve
// shares with assasin-bench with the help strings assasin-bench registers.
func TestCLIHelpSharesFlags(t *testing.T) {
	code, _, help := runServe("-h")
	if code != 0 {
		t.Fatalf("-h: exit %d\n%s", code, help)
	}
	bench := flag.NewFlagSet("assasin-bench", flag.ContinueOnError)
	opts := experiments.NewFlags()
	opts.Register(bench)
	opts.RegisterScale(bench)
	opts.RegisterObserve(bench)
	for _, name := range []string{"exp", "quick", "verify", "cores", "sf", "mb", "load", "slo", "requests", "log-level", "version"} {
		f := bench.Lookup(name)
		if f == nil {
			t.Fatalf("assasin-bench registers no -%s", name)
		}
		if !strings.Contains(help, "\n  -"+name) || !strings.Contains(help, "\t"+f.Usage) {
			t.Errorf("-h does not list -%s with %q:\n%s", name, f.Usage, help)
		}
	}
}
