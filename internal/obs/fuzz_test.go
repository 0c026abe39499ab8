package obs_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"testing"

	"assasin/internal/experiments"
	"assasin/internal/obs"
	"assasin/internal/ssd"
	"assasin/internal/telemetry/timeline"
)

// FuzzRoutes serves arbitrary GET paths through NewHandler over a collector
// holding one recorded run with a timeline, a request trace and a guest
// profile, so every /runs/{id}/... route has data behind it. No path may
// panic a handler, and every answer is 200, 400 or 404. The seeds cover the
// run, request-id and compare shapes with good and bad ids.
func FuzzRoutes(f *testing.F) {
	run, err := experiments.RunWorkload(experiments.Config{
		Timeline: &timeline.Config{}, Requests: 4, KProf: true,
	}, "stat", ssd.AssasinSb, false, 2, 16<<10, 1)
	if err != nil {
		f.Fatal(err)
	}
	rec := run.Run
	if rec.Timeline == nil || rec.Requests == nil || len(rec.Requests.Slowest) == 0 || rec.Profile == nil {
		f.Fatal("recorded run lacks a timeline, a retained request or a profile")
	}
	c := obs.NewCollector()
	id := c.ObserveRun(rec).ID
	c.MarkReady()
	h := obs.NewHandler(c)

	rid := rec.Requests.Slowest[0].ID
	for _, p := range []string{
		"/", "/healthz", "/readyz", "/metrics", "/slo", "/live", "/runs",
		"/runs/" + id + "/report",
		"/runs/" + id + "/timeline",
		"/runs/" + id + "/requests",
		fmt.Sprintf("/runs/%s/requests/%d", id, rid),
		"/runs/" + id + "/requests/999999",
		"/runs/" + id + "/requests/-1",
		"/runs/" + id + "/requests/18446744073709551616",
		"/runs/" + id + "/requests/notanumber",
		"/runs/" + id + "/profile",
		"/runs/" + id + "/profile.pb.gz",
		"/runs/" + id + "/compare/" + id,
		"/runs/" + id + "/compare/run-9999",
		"/runs/run-9999/compare/" + id,
		"/runs/run-0000/report",
		"/runs/%zz/report",
		"/runs/" + id + "/requests/1/extra",
		"/nope",
	} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p string) {
		// The mux answers unclean paths with a redirect to the clean one,
		// and /debug/pprof is net/http/pprof's (its CPU profile blocks for
		// seconds), so the target serves clean paths outside it.
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.URL.Path = path.Clean("/" + p)
		if strings.HasPrefix(req.URL.Path, "/debug/pprof") {
			return
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("GET %q = %d: %s", req.URL.Path, w.Code, w.Body.String())
		}
	})
}
