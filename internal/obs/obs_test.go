package obs_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"assasin/internal/experiments"
	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/obs"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/kprof"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden Prometheus exposition under testdata/")

// statWords builds the tiny Table II Stat workload input: n bytes of
// deterministic 32-bit words.
func statWords(n int, seed uint32) []byte {
	b := make([]byte, n)
	x := seed
	for i := 0; i+4 <= n; i += 4 {
		x = x*1664525 + 1013904223
		binary.LittleEndian.PutUint32(b[i:], x)
	}
	return b
}

// runStat offloads the tiny Stat workload on a fresh AssasinSb drive with
// the sink attached (the same workload the ssd package's golden trace pins).
func runStat(t *testing.T, tel *telemetry.Sink) {
	t.Helper()
	data := statWords(16<<10, 7)
	tel.StartRun("Stat/AssasinSb")
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 2, Telemetry: tel})
	lpas, err := s.InstallBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunKernel(ssd.KernelRun{
		Kernel:     kernels.Stat{},
		Inputs:     [][]int{lpas},
		InputBytes: []int64{int64(len(data))},
		RecordSize: 4,
		Cores:      2,
		OutKind:    firmware.OutDiscard,
	}); err != nil {
		t.Fatal(err)
	}
	s.PublishStats()
}

// TestGoldenPrometheus pins the full /metrics exposition for the tiny Stat
// workload. The simulation is deterministic, so the text is byte-stable;
// regenerate with go test ./internal/obs -run GoldenPrometheus -update
// after an intentional timing or instrumentation change.
func TestGoldenPrometheus(t *testing.T) {
	tel := telemetry.NewSink()
	runStat(t, tel)

	c := obs.NewCollector()
	c.PublishMetrics(tel.Metrics())
	c.SetBuildInfo("version", "test", "go_version", "go", "vcs_revision", "deadbeef")
	c.MarkReady()

	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"assasin_fw_pages_fed_total ",
		"assasin_flash_senses_total ",
		"# TYPE assasin_flash_ch0_busy_ps gauge",
		"# TYPE assasin_sched_quantum_used_ps histogram",
		"assasin_sched_quantum_used_ps_bucket{le=\"+Inf\"} ",
		"assasin_sched_quantum_used_ps_count ",
		"assasin_build_info{version=\"test\",go_version=\"go\",vcs_revision=\"deadbeef\"} 1",
		"assasin_serve_ready 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if line == "" {
			t.Error("exposition contains a blank line")
		}
	}

	golden := filepath.Join("testdata", "golden_metrics.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition deviates from %s (%d vs %d bytes); run with -update if the change is intentional",
			golden, buf.Len(), len(want))
	}
}

// miniFig13 runs a small Fig 13 fan-out with the collector bridged in,
// returning the marshaled rows.
func miniFig13(t *testing.T, c *obs.Collector) []byte {
	t.Helper()
	tel := telemetry.NewSink()
	cfg := experiments.Config{
		KernelMB: 0.125, AESKB: 16, ScanMB: 1, TPCHScale: 0.001,
		Cores: 2, Workers: 1, Telemetry: tel,
		OnRunDone: func(rec analyze.Run) { c.ObserveRun(rec) },
	}
	rows, err := experiments.Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestScrapeDoesNotPerturb runs the same experiment fan-out twice — once
// quiet, once with a scraper goroutine hammering every endpoint for the
// whole run — and demands byte-identical results. Publication at run
// boundaries is what makes this hold: scrapers only read immutable
// snapshots, never the live sink.
func TestScrapeDoesNotPerturb(t *testing.T) {
	quiet := miniFig13(t, obs.NewCollector())

	c := obs.NewCollector()
	c.MarkReady()
	h := obs.NewHandler(c)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		paths := []string{"/metrics", "/runs", "/runs/run-0001/report", "/readyz", "/healthz"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req := httptest.NewRequest("GET", paths[i%len(paths)], nil)
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	}()
	scraped := miniFig13(t, c)
	close(stop)
	wg.Wait()

	if !bytes.Equal(quiet, scraped) {
		t.Fatalf("results diverge under concurrent scraping:\nquiet:   %s\nscraped: %s", quiet, scraped)
	}

	// The fan-out completed 24 runs; its reports are all queryable.
	if got := c.RunsCompleted(); got != 24 {
		t.Fatalf("runs completed = %d, want 24", got)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/run-0001/report", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/runs/run-0001/report = %d, want 200", rec.Code)
	}
	var rep struct {
		ID           string `json:"id"`
		LargestClass string `json:"largest_class"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ID != "run-0001" || rep.LargestClass == "" {
		t.Fatalf("report = %+v", rep)
	}
}

// TestEndpoints exercises the handler over a real HTTP server.
func TestEndpoints(t *testing.T) {
	c := obs.NewCollector()
	srv := httptest.NewServer(obs.NewHandler(c))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before MarkReady = %d, want 503", code)
	}
	c.MarkReady()
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz after MarkReady = %d, want 200", code)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "assasin_serve_ready 1") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get("/runs"); code != 200 || strings.TrimSpace(body) != "[]" {
		t.Fatalf("/runs with no runs = %d %q", code, body)
	}
	if code, _ := get("/runs/run-0042/report"); code != http.StatusNotFound {
		t.Fatalf("unknown run report = %d, want 404", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d %q", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// TestRequestsEndpoints drives a real traced run through the collector and
// reads it back over HTTP: the summary endpoint, one retained request by id
// (its critical path must sum exactly to its latency), and the 404/400
// paths.
func TestRequestsEndpoints(t *testing.T) {
	c := obs.NewCollector()
	root := telemetry.NewSink()
	root.MaxEvents = -1 // metrics-only: private per-run sinks
	cfg := experiments.Config{
		KernelMB: 0.125, AESKB: 16, ScanMB: 1, TPCHScale: 0.001,
		Cores: 2, Workers: 1, Telemetry: root, Requests: 4,
		OnRunDone: func(rec analyze.Run) { c.ObserveRun(rec) },
	}
	if _, err := experiments.Fig13(cfg); err != nil {
		t.Fatal(err)
	}
	c.MarkReady()
	srv := httptest.NewServer(obs.NewHandler(c))
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	code, body := get("/runs/run-0001/requests")
	if code != http.StatusOK {
		t.Fatalf("/runs/run-0001/requests = %d: %s", code, body)
	}
	var sum struct {
		Count   int64 `json:"count"`
		Slowest []struct {
			ID        uint64 `json:"id"`
			LatencyPs int64  `json:"latency_ps"`
			Critical  []struct {
				Class string `json:"class"`
				DurPs int64  `json:"dur_ps"`
			} `json:"critical"`
		} `json:"slowest"`
	}
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Count == 0 || len(sum.Slowest) == 0 {
		t.Fatalf("empty request summary: %s", body)
	}
	r0 := sum.Slowest[0]
	var total int64
	for _, sg := range r0.Critical {
		total += sg.DurPs
	}
	if total != r0.LatencyPs {
		t.Fatalf("critical path sums to %d, latency is %d", total, r0.LatencyPs)
	}

	code, body = get(fmt.Sprintf("/runs/run-0001/requests/%d", r0.ID))
	if code != http.StatusOK {
		t.Fatalf("request detail = %d: %s", code, body)
	}
	var one struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if one.ID != r0.ID {
		t.Fatalf("detail id = %d, want %d", one.ID, r0.ID)
	}

	if code, _ := get("/runs/run-9999/requests"); code != http.StatusNotFound {
		t.Fatalf("unknown run requests = %d, want 404", code)
	}
	if code, _ := get("/runs/run-0001/requests/999999"); code != http.StatusNotFound {
		t.Fatalf("unretained request = %d, want 404", code)
	}
	if code, _ := get("/runs/run-0001/requests/notanumber"); code != http.StatusBadRequest {
		t.Fatalf("malformed request id = %d, want 400", code)
	}
}

// TestProfileEndpoints drives a kprof-instrumented run through the
// collector and reads the guest profile back over HTTP, in both JSON and
// pprof form, plus the 404/405 negative paths.
func TestProfileEndpoints(t *testing.T) {
	c := obs.NewCollector()
	cfg := experiments.Config{
		KernelMB: 0.125, AESKB: 16, ScanMB: 1, TPCHScale: 0.001,
		Cores: 2, Workers: 1, KProf: true,
		OnRunDone: func(rec analyze.Run) { c.ObserveRun(rec) },
	}
	if _, err := experiments.Fig13(cfg); err != nil {
		t.Fatal(err)
	}
	// An un-profiled run: its id must 404 on the profile endpoints.
	bare := c.ObserveRun(analyze.Run{Label: "bare"})
	c.MarkReady()
	srv := httptest.NewServer(obs.NewHandler(c))
	defer srv.Close()

	get := func(path string) (int, http.Header, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, b
	}

	code, _, body := get("/runs/run-0001/profile")
	if code != http.StatusOK {
		t.Fatalf("/runs/run-0001/profile = %d: %s", code, body)
	}
	var prof kprof.Profile
	if err := json.Unmarshal(body, &prof); err != nil {
		t.Fatal(err)
	}
	if len(prof.Kernels) == 0 {
		t.Fatalf("profile has no kernels: %s", body)
	}
	insts, classPs := prof.Totals()
	if insts == 0 || classPs[0] == 0 {
		t.Fatalf("profile totals empty: insts %d, class times %v", insts, classPs)
	}

	code, hdr, raw := get("/runs/run-0001/profile.pb.gz")
	if code != http.StatusOK {
		t.Fatalf("/runs/run-0001/profile.pb.gz = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("pb.gz content type = %q", ct)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Errorf("pb.gz payload is not gzip (starts %x)", raw[:min(4, len(raw))])
	}

	if code, _, _ := get("/runs/run-9999/profile"); code != http.StatusNotFound {
		t.Fatalf("unknown run profile = %d, want 404", code)
	}
	if code, _, _ := get("/runs/" + bare.ID + "/profile"); code != http.StatusNotFound {
		t.Fatalf("un-profiled run = %d, want 404", code)
	}
	if code, _, _ := get("/runs/" + bare.ID + "/profile.pb.gz"); code != http.StatusNotFound {
		t.Fatalf("un-profiled run pb.gz = %d, want 404", code)
	}
	resp, err := http.Post(srv.URL+"/runs/run-0001/profile", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST profile = %d, want 405", resp.StatusCode)
	}
}

// TestNilCollector checks the disabled collector contract: every method is
// a safe no-op, and the Prometheus exposition still renders the serving
// metrics.
func TestNilCollector(t *testing.T) {
	var c *obs.Collector
	if rep := c.ObserveRun(analyze.Run{}); rep != nil {
		t.Fatalf("nil collector stored a report: %+v", rep)
	}
	c.PublishMetrics(telemetry.MetricsSnapshot{})
	c.MarkReady()
	if c.Ready() || c.RunsCompleted() != 0 || c.Reports() != nil || c.Report("run-0001") != nil || c.Run("run-0001") != nil {
		t.Fatal("nil collector is not inert")
	}
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "assasin_serve_ready 0") {
		t.Fatalf("nil exposition = %q", buf.String())
	}
}

// TestNilCollectorZeroAllocs pins the disabled-path cost: observing runs
// and publishing snapshots through a nil collector allocates nothing.
func TestNilCollectorZeroAllocs(t *testing.T) {
	var c *obs.Collector
	snap := telemetry.MetricsSnapshot{}
	allocs := testing.AllocsPerRun(100, func() {
		c.PublishMetrics(snap)
		c.MarkReady()
		_ = c.Ready()
		_ = c.RunsCompleted()
	})
	if allocs != 0 {
		t.Fatalf("nil collector allocates %.1f per op, want 0", allocs)
	}
}
