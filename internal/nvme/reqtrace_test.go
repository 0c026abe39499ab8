package nvme

import (
	"strings"
	"testing"

	"assasin/internal/firmware"
	"assasin/internal/kernels"
	"assasin/internal/sim"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/reqtrace"
)

// TestIORequestTracing checks conventional-command tracing under a mixed
// workload: every read, write, and the scomp offload gets a RequestID at
// submission, and each IO request's critical path decomposes the command
// latency exactly into flash, DRAM, and host-link legs.
func TestIORequestTracing(t *testing.T) {
	tracer := reqtrace.New(nil, reqtrace.Config{TopK: 64})
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 2, Requests: tracer})
	lpas, data := installData(t, s, 256<<10, 7)
	rdLpas, _ := installData(t, s, 2*s.Flash.PageSize, 11)
	wrStart := s.ReserveLPAs(1)

	tasks, err := s.BuildTasks(ssd.KernelRun{
		Kernel:     kernels.Stat{},
		Inputs:     [][]int{lpas},
		InputBytes: []int64{int64(len(data))},
		RecordSize: 4,
		Cores:      2,
		OutKind:    firmware.OutDiscard,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, s.Flash.PageSize)
	reqs := []IORequest{
		{Op: OpRead, LPA: rdLpas[0], Pages: 2, SubmitAt: 0},
		{Op: OpWrite, LPA: wrStart, Pages: 1, SubmitAt: 5 * sim.Microsecond, Data: payload},
		{Op: OpRead, LPA: rdLpas[1], Pages: 1, SubmitAt: 30 * sim.Microsecond},
	}
	_, comps, err := c2(s).RunMixed(tasks, reqs, 0)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := tracer.Count(), int64(len(reqs)+1); got != want {
		t.Fatalf("traced %d requests, want %d (3 IO + 1 offload)", got, want)
	}
	sum := tracer.Summary("mixed")
	byLat := make(map[int64]*reqtrace.Request)
	var offload *reqtrace.Request
	for i := range sum.Slowest {
		r := &sum.Slowest[i]
		if r.Kind == "offload" {
			offload = r
			continue
		}
		byLat[r.SubmitPs] = r
	}
	if offload == nil || offload.Label != OpSComp.String() {
		t.Fatalf("offload request missing or unlabeled: %+v", offload)
	}
	for i, cm := range comps {
		r := byLat[int64(cm.Req.SubmitAt)]
		if r == nil {
			t.Fatalf("IO %d (submit %v) not retained", i, cm.Req.SubmitAt)
		}
		if want := "io-" + cm.Req.Op.String(); r.Kind != want {
			t.Fatalf("IO %d kind = %q, want %q", i, r.Kind, want)
		}
		if r.LatencyPs != int64(cm.Latency) {
			t.Fatalf("IO %d traced latency %dps, completion says %dps", i, r.LatencyPs, int64(cm.Latency))
		}
		var total int64
		seen := map[string]bool{}
		for _, sg := range r.Critical {
			total += sg.DurPs
			seen[sg.Class] = true
			if sg.Class == reqtrace.ClassUnattributed {
				t.Fatalf("IO %d: unattributed segment %+v", i, r.Critical)
			}
		}
		if total != r.LatencyPs {
			t.Fatalf("IO %d: segments sum to %dps, latency is %dps (%+v)", i, total, r.LatencyPs, r.Critical)
		}
		if !seen[reqtrace.ClassFlashWait] || !seen[reqtrace.ClassHostLink] {
			t.Fatalf("IO %d: critical path missing flash/host legs: %+v", i, r.Critical)
		}
	}
}

// c2 wraps a drive with the default controller config.
func c2(s *ssd.SSD) *Controller { return New(s, DefaultConfig()) }

// TestIOTracingDisabled checks the nil-tracer path still services IO.
func TestIOTracingDisabled(t *testing.T) {
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 2})
	lpas, _ := installData(t, s, 2*s.Flash.PageSize, 3)
	_, comps, err := c2(s).RunMixed(nil, []IORequest{{Op: OpRead, LPA: lpas[0], Pages: 1}}, sim.Second)
	if err != nil || len(comps) != 1 || comps[0].Latency <= 0 {
		t.Fatalf("untraced IO broken: %v %+v", err, comps)
	}
}

// TestCriticalTotalsPinned pins the class-indexed critical-path accounting
// of a mixed IO-plus-offload run to the figures the string-keyed tracer
// produced: the per-class totals and the req_crit_<class>_ps histograms'
// names, counts and sums.
func TestCriticalTotalsPinned(t *testing.T) {
	sink := telemetry.NewSink()
	tracer := reqtrace.New(sink, reqtrace.Config{TopK: 4})
	s := ssd.New(ssd.Options{Arch: ssd.AssasinSb, Cores: 4, Telemetry: sink, Requests: tracer})
	lpas, data := installData(t, s, 256<<10, 7)
	rdLpas, _ := installData(t, s, 8*s.Flash.PageSize, 11)
	wr := s.ReserveLPAs(4)
	tasks, err := s.BuildTasks(ssd.KernelRun{
		Kernel: kernels.Stat{}, Inputs: [][]int{lpas}, InputBytes: []int64{int64(len(data))},
		RecordSize: 4, Cores: 4, OutKind: firmware.OutDiscard,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, s.Flash.PageSize)
	var reqs []IORequest
	for i := 0; i < 24; i++ {
		at := sim.Time(i) * 7 * sim.Microsecond
		if i%5 == 4 {
			reqs = append(reqs, IORequest{Op: OpWrite, LPA: wr + i%4, Pages: 1, SubmitAt: at, Data: payload})
		} else {
			reqs = append(reqs, IORequest{Op: OpRead, LPA: rdLpas[i%8], Pages: 1 + i%2, SubmitAt: at, Discard: true})
		}
	}
	if _, _, err := c2(s).RunMixed(tasks, reqs, 0); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		class string
		count int64
		sum   int64
	}{
		{"core-busy", 1, 49152000},
		{"dram-wait", 24, 1324236000},
		{"exec-stall", 1, 16384000},
		{"flash-wait", 24, 2044200000},
		{"host-link-wait", 24, 846064000},
		{"queueing", 1, 1000},
		{"stream-refill-wait", 1, 274008000},
	}
	sum := tracer.Summary("mixed")
	if sum.Count != 25 || len(sum.CriticalTotalsPs) != len(want) {
		t.Fatalf("count %d, critical totals %v", sum.Count, sum.CriticalTotalsPs)
	}
	hists := sink.Metrics().Histograms
	crit := 0
	for name := range hists {
		if strings.HasPrefix(name, "req/crit_") {
			crit++
		}
	}
	if crit != len(want) {
		t.Fatalf("%d req/crit_* histograms, want %d", crit, len(want))
	}
	for _, w := range want {
		if got := sum.CriticalTotalsPs[w.class]; got != w.sum {
			t.Errorf("critical total %s = %d, want %d", w.class, got, w.sum)
		}
		h, ok := hists["req/crit_"+w.class+"_ps"]
		if !ok || h.Count != w.count || h.Sum != w.sum {
			t.Errorf("histogram %s = %+v, want count %d sum %d", w.class, h, w.count, w.sum)
		}
	}
}
