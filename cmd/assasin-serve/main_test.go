package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"assasin/internal/experiments"
)

// runServe runs the command in process and returns its exit status, stdout
// and stderr.
func runServe(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// deadline bounds every wait in the serving tests: for the listen line,
// for a probe to match and for the command to exit.
const deadline = 60 * time.Second

// lockedBuffer is a bytes.Buffer the command's goroutines write while the
// test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`listening on (http://[0-9.:]+)`)

// waitListen polls stdout for the listen line and returns the server's
// URL. It fails if the command ends first, which it reports on exit.
func waitListen[T any](t *testing.T, stdout, stderr *lockedBuffer, exit chan T) string {
	t.Helper()
	for end := time.Now().Add(deadline); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if m := listenLine.FindStringSubmatch(stdout.String()); m != nil {
			return m[1]
		}
		if ready(exit) {
			t.Fatalf("exited before listening\n%s", stderr)
		}
	}
	t.Fatalf("no listen line after %v\n%s", deadline, stderr)
	return ""
}

// ready reports whether ch holds a value, and leaves it there.
func ready[T any](ch chan T) bool {
	select {
	case v := <-ch:
		ch <- v
		return true
	default:
		return false
	}
}

// probe is one endpoint check: GET path must answer 200 with a body that
// matches want.
type probe struct {
	path string
	want string
}

// TestServeEndpoints runs the command in process on 127.0.0.1:0 in two
// passes and polls each probe until it matches: a quick Table II pass for
// the health, metrics and per-run routes, then an open-loop load pass
// whose 1 ns objective makes every request bad, so the SLO state is served
// and the fast-burn page fires. Each pass ends by cancelling the context,
// which must drain to exit 0.
func TestServeEndpoints(t *testing.T) {
	for _, pass := range []struct {
		name   string
		args   []string
		probes []probe
	}{
		{"table2", []string{"-exp", "table2", "-quick"}, []probe{
			{"/healthz", `^ok\n$`},
			{"/readyz", `.`},
			// The fed-pages counter appears once the first run's snapshot
			// is published.
			{"/metrics", `(?m)^assasin_fw_pages_fed_total [1-9]`},
			{"/metrics", `(?m)^assasin_serve_ready 1$`},
			// A completed run serves its sampled timeline, request-trace
			// summary and guest kernel profile.
			{"/runs/run-0001/timeline", `"times_ps"`},
			{"/runs/run-0001/requests", `"critical_totals_ps"`},
			{"/runs/run-0001/profile", `"kernels"`},
			// The compare route rebuilds both sides from the stored runs:
			// the phase and guest-block sections appear only when it finds
			// both runs' timelines and guest profiles.
			{"/runs/run-0001/compare/run-0002", `"phases"`},
			{"/runs/run-0001/compare/run-0002", `"blocks"`},
		}},
		{"load", []string{"-exp", "load", "-slo", "all:99.9:1ns"}, []probe{
			{"/slo", `"objectives"`},
			{"/slo", `"firing": true`},
			{"/slo", `"rule": "fast-burn"`},
			{"/live", `"rates"`},
			{"/live", `"hists"`},
			{"/metrics", `(?m)^assasin_slo_bad_total\{objective="all-p99\.9",tenant=""\} [1-9]`},
			{"/metrics", `(?m)^assasin_slo_alert_firing\{objective="all-p99\.9",rule="fast-burn",severity="page"\} 1$`},
			// Each load drive is a run of its own: its request summary is
			// served under /runs, and the root sink it was absorbed into
			// feeds /metrics.
			{"/runs/run-0001/requests", `"critical_totals_ps"`},
			{"/metrics", `(?m)^assasin_req_latency_ps_count [1-9]`},
		}},
	} {
		t.Run(pass.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stdout, stderr := new(lockedBuffer), new(lockedBuffer)
			exit := make(chan int, 1)
			go func() { exit <- run(ctx, pass.args, stdout, stderr) }()
			shutdown := func() int {
				cancel()
				select {
				case code := <-exit:
					return code
				case <-time.After(deadline):
					t.Fatalf("no exit %v after cancel\n%s", deadline, stderr)
					return -1
				}
			}
			url := waitListen(t, stdout, stderr, exit)
			for _, p := range pass.probes {
				if err := poll(url+p.path, regexp.MustCompile(p.want), stderr); err != "" {
					shutdown()
					t.Fatalf("GET %s never matched %s: %s", p.path, p.want, err)
				}
			}
			if code := shutdown(); code != 0 {
				t.Fatalf("exit %d after cancel, want 0\n%s", code, stderr)
			}
			if !strings.Contains(stderr.String(), "shutdown requested") {
				t.Errorf("no shutdown log line:\n%s", stderr)
			}
		})
	}
}

// poll GETs url until the response is 200 with a body that matches want,
// and returns "" or the last response. It gives up at the deadline, or at
// once after a miss once the log shows the experiment complete, since the
// published state no longer changes then.
func poll(url string, want *regexp.Regexp, log *lockedBuffer) string {
	var last string
	for end := time.Now().Add(deadline); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		settled := strings.Contains(log.String(), "experiment complete")
		resp, err := http.Get(url)
		if err != nil {
			return err.Error()
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err.Error()
		}
		if resp.StatusCode == http.StatusOK && want.Match(body) {
			return ""
		}
		last = resp.Status + "\n" + string(body)
		if settled {
			break
		}
	}
	return last
}

// TestServeOnce checks that -once serves and then exits 0 by itself when
// the experiments finish.
func TestServeOnce(t *testing.T) {
	code, stdout, stderr := runServe("-once", "-quick", "-exp", "table4")
	if code != 0 || !listenLine.MatchString(stdout) {
		t.Fatalf("exit %d, want 0 after a listen line\n%s\n%s", code, stdout, stderr)
	}
}

// TestServeSIGTERM runs the built binary and sends it a real SIGTERM: the
// signal must cancel run's context, and the command must log the shutdown
// and exit 0.
func TestServeSIGTERM(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "assasin-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	stdout, stderr := new(lockedBuffer), new(lockedBuffer)
	cmd := exec.Command(bin, "-exp", "table4", "-quick")
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	defer cmd.Process.Kill()
	waitListen(t, stdout, stderr, waited)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("SIGTERM: %v, want exit 0\n%s", err, stderr)
		}
	case <-time.After(deadline):
		t.Fatalf("no exit %v after SIGTERM\n%s", deadline, stderr)
	}
	if !strings.Contains(stderr.String(), "shutdown requested") {
		t.Errorf("no shutdown log line:\n%s", stderr)
	}
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
