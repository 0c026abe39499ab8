package obs_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/obs"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/timeline"
)

// syntheticTimeline builds a tiny timeline dominated by one class.
func syntheticTimeline(run, class string) *timeline.Timeline {
	s := timeline.New(nil, timeline.Config{IntervalPs: 10})
	var cum int64
	s.AddProbe(func(emit func(string, int64)) {
		emit(timeline.ClassPrefix+class, cum)
	})
	for i := 1; i <= 4; i++ {
		cum += 8
		s.Tick(int64(10 * i))
	}
	return s.Finish(run, 40)
}

// observe stores one synthetic run (with or without a timeline) and returns
// its report.
func observe(c *obs.Collector, label string, tl *timeline.Timeline) *analyze.RunReport {
	return c.ObserveRun(analyze.Run{
		Label: label, Kernel: "stat", Arch: "Baseline",
		DurationPs: 100, InputBytes: 1000,
		ClassPs:  [cpu.NumClasses]int64{60, 40, 0, 0, 0},
		Timeline: tl,
	})
}

func timelineTestServer(t *testing.T) (*obs.Collector, *httptest.Server) {
	t.Helper()
	c := obs.NewCollector()
	c.MarkReady()
	srv := httptest.NewServer(obs.NewHandler(c))
	t.Cleanup(srv.Close)
	return c, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	return resp.StatusCode, string(buf[:n])
}

func TestTimelineEndpoint(t *testing.T) {
	c, srv := timelineTestServer(t)
	observe(c, "stat/Baseline", syntheticTimeline("stat/Baseline", "cache-dram-wait"))
	observe(c, "stat/AssasinSb", nil)

	code, body := get(t, srv.URL+"/runs/run-0001/timeline")
	if code != http.StatusOK {
		t.Fatalf("GET timeline = %d, want 200", code)
	}
	for _, want := range []string{`"times_ps"`, `"series"`, `"phases"`, "cache-dram-wait"} {
		if !contains(body, want) {
			t.Errorf("timeline body missing %s:\n%s", want, body)
		}
	}

	// Observed run without a sampled timeline: 404, not an empty document.
	if code, _ := get(t, srv.URL+"/runs/run-0002/timeline"); code != http.StatusNotFound {
		t.Errorf("GET timeline for unsampled run = %d, want 404", code)
	}
	// Unknown run id: 404.
	if code, _ := get(t, srv.URL+"/runs/run-9999/timeline"); code != http.StatusNotFound {
		t.Errorf("GET timeline for unknown run = %d, want 404", code)
	}
}

func TestCompareEndpoint(t *testing.T) {
	c, srv := timelineTestServer(t)
	observe(c, "stat/Baseline", syntheticTimeline("stat/Baseline", "cache-dram-wait"))
	c.ObserveRun(analyze.Run{
		Label: "stat/AssasinSb", Kernel: "stat", Arch: "AssasinSb",
		DurationPs: 60, InputBytes: 1000,
		ClassPs:  [cpu.NumClasses]int64{55, 0, 5, 0, 0},
		Timeline: syntheticTimeline("stat/AssasinSb", "core-busy"),
	})

	code, body := get(t, srv.URL+"/runs/run-0001/compare/run-0002")
	if code != http.StatusOK {
		t.Fatalf("GET compare = %d, want 200\n%s", code, body)
	}
	for _, want := range []string{`"headline"`, `"top_class"`, `"classes"`, `"phases"`, "cache-dram-wait"} {
		if !contains(body, want) {
			t.Errorf("compare body missing %s:\n%s", want, body)
		}
	}

	// Either side unknown: 404.
	if code, _ := get(t, srv.URL+"/runs/run-0001/compare/run-0404"); code != http.StatusNotFound {
		t.Errorf("compare with unknown other = %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/runs/run-0404/compare/run-0001"); code != http.StatusNotFound {
		t.Errorf("compare with unknown id = %d, want 404", code)
	}
}

func TestReportCarriesPhases(t *testing.T) {
	c, srv := timelineTestServer(t)
	observe(c, "stat/Baseline", syntheticTimeline("stat/Baseline", "cache-dram-wait"))

	code, body := get(t, srv.URL+"/runs/run-0001/report")
	if code != http.StatusOK {
		t.Fatalf("GET report = %d, want 200", code)
	}
	if !contains(body, `"phases"`) {
		t.Errorf("report of a sampled run carries no phases:\n%s", body)
	}
}

func TestEndpointsRejectNonGET(t *testing.T) {
	c, srv := timelineTestServer(t)
	observe(c, "stat/Baseline", syntheticTimeline("stat/Baseline", "cache-dram-wait"))

	for _, path := range []string{
		"/runs",
		"/runs/run-0001/report",
		"/runs/run-0001/timeline",
		"/runs/run-0001/compare/run-0001",
		"/metrics",
	} {
		resp, err := http.Post(srv.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
