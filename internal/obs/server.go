package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"assasin/internal/telemetry/diff"
)

// runSummary is one row of the /runs listing.
type runSummary struct {
	ID            string  `json:"id"`
	Label         string  `json:"label"`
	Kernel        string  `json:"kernel"`
	Arch          string  `json:"arch"`
	DurationPs    int64   `json:"duration_ps"`
	ThroughputBps float64 `json:"throughput_bps"`
	LargestClass  string  `json:"largest_class"`
	LargestStall  string  `json:"largest_stall"`
}

// NewHandler builds the observability endpoint set over a collector:
//
//	/healthz            liveness (always 200 once serving)
//	/readyz             readiness (503 until MarkReady)
//	/metrics            Prometheus text format, latest published snapshot
//	/slo                latest published SLO status (404 until a load run publishes)
//	/live               latest published live window snapshot (404 until published)
//	/runs                     JSON list of completed runs
//	/runs/{id}/report         one run's full attribution report
//	/runs/{id}/timeline       the run's sampled timeline (404 when not sampled)
//	/runs/{id}/requests       the run's request-trace summary (404 when not traced)
//	/runs/{id}/requests/{rid} one retained slow request's full causal record
//	/runs/{id}/profile        the run's guest-kernel profile (404 when not profiled)
//	/runs/{id}/profile.pb.gz  the same profile as gzipped pprof profile.proto
//	/runs/{id}/compare/{other} differential report between two runs
//	/debug/pprof/*            the standard Go profiling endpoints
//
// Every endpoint reads only published, immutable data, so scraping while a
// simulation runs on another goroutine cannot perturb its results.
func NewHandler(c *Collector) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !c.Ready() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.WritePrometheus(w)
	})
	mux.HandleFunc("GET /slo", func(w http.ResponseWriter, r *http.Request) {
		st := c.SLOStatus()
		if st == nil {
			http.Error(w, "no SLO status published (run the load experiment)", http.StatusNotFound)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /live", func(w http.ResponseWriter, r *http.Request) {
		snap := c.LiveSnapshot()
		if snap == nil {
			http.Error(w, "no live snapshot published (run the load experiment)", http.StatusNotFound)
			return
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("GET /runs", func(w http.ResponseWriter, r *http.Request) {
		reports := c.Reports()
		out := make([]runSummary, 0, len(reports))
		for _, rep := range reports {
			out = append(out, runSummary{
				ID: rep.ID, Label: rep.Label, Kernel: rep.Kernel, Arch: rep.Arch,
				DurationPs: rep.DurationPs, ThroughputBps: rep.ThroughputBps,
				LargestClass: rep.LargestClass, LargestStall: rep.LargestStall,
			})
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("GET /runs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		rep := c.Report(r.PathValue("id"))
		if rep == nil {
			http.Error(w, "unknown run", http.StatusNotFound)
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("GET /runs/{id}/timeline", func(w http.ResponseWriter, r *http.Request) {
		run := c.Run(r.PathValue("id"))
		if run == nil || run.Timeline == nil {
			http.Error(w, "unknown run or no timeline", http.StatusNotFound)
			return
		}
		writeJSON(w, run.Timeline)
	})
	mux.HandleFunc("GET /runs/{id}/requests", func(w http.ResponseWriter, r *http.Request) {
		run := c.Run(r.PathValue("id"))
		if run == nil || run.Requests == nil {
			http.Error(w, "unknown run or no request trace", http.StatusNotFound)
			return
		}
		writeJSON(w, run.Requests)
	})
	mux.HandleFunc("GET /runs/{id}/requests/{rid}", func(w http.ResponseWriter, r *http.Request) {
		run := c.Run(r.PathValue("id"))
		if run == nil || run.Requests == nil {
			http.Error(w, "unknown run or no request trace", http.StatusNotFound)
			return
		}
		rid, err := strconv.ParseUint(r.PathValue("rid"), 10, 64)
		if err != nil {
			http.Error(w, "bad request id", http.StatusBadRequest)
			return
		}
		req := run.Requests.Find(rid)
		if req == nil {
			http.Error(w, "request not retained (only the K slowest are kept)", http.StatusNotFound)
			return
		}
		writeJSON(w, req)
	})
	mux.HandleFunc("GET /runs/{id}/profile", func(w http.ResponseWriter, r *http.Request) {
		run := c.Run(r.PathValue("id"))
		if run == nil || run.Profile == nil {
			http.Error(w, "unknown run or no profile", http.StatusNotFound)
			return
		}
		writeJSON(w, run.Profile)
	})
	mux.HandleFunc("GET /runs/{id}/profile.pb.gz", func(w http.ResponseWriter, r *http.Request) {
		run := c.Run(r.PathValue("id"))
		if run == nil || run.Profile == nil {
			http.Error(w, "unknown run or no profile", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		run.Profile.WritePprof(w)
	})
	mux.HandleFunc("GET /runs/{id}/compare/{other}", func(w http.ResponseWriter, r *http.Request) {
		a, b := r.PathValue("id"), r.PathValue("other")
		runA, runB := c.Run(a), c.Run(b)
		if runA == nil || runB == nil {
			http.Error(w, "unknown run", http.StatusNotFound)
			return
		}
		writeJSON(w, diff.Compare(
			diff.RunData{Label: runA.Label, Report: c.Report(a), Timeline: runA.Timeline, Profile: runA.Profile},
			diff.RunData{Label: runB.Label, Report: c.Report(b), Timeline: runB.Timeline, Profile: runB.Profile},
		))
	})
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "assasin-serve endpoints:\n"+
			"  /healthz\n  /readyz\n  /metrics\n  /slo\n  /live\n  /runs\n  /runs/{id}/report\n"+
			"  /runs/{id}/timeline\n  /runs/{id}/requests\n  /runs/{id}/requests/{rid}\n"+
			"  /runs/{id}/profile\n  /runs/{id}/profile.pb.gz\n"+
			"  /runs/{id}/compare/{other}\n  /debug/pprof/\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON writes v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
