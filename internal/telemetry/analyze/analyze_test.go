package analyze

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/telemetry"
)

// memoryWallRun models a baseline CSSD run: cache/DRAM waits dominate.
func memoryWallRun() Run {
	return Run{
		Label: "Stat/Baseline", Kernel: "Stat", Arch: "Baseline", Cores: 2,
		DurationPs: 1_000_000, InputBytes: 4096,
		ClassPs: [cpu.NumClasses]int64{390_000, 950_000, 80_000, 0, 160_000},
	}
}

func TestAttributeClassShares(t *testing.T) {
	rep := Attribute(memoryWallRun())
	if rep.LargestClass != cpu.ClassCacheDRAMWait || rep.LargestStall != cpu.ClassCacheDRAMWait {
		t.Fatalf("largest class/stall = %s/%s, want cache-dram-wait", rep.LargestClass, rep.LargestStall)
	}
	var total float64
	for _, s := range rep.Classes {
		total += s.Frac
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("class fractions sum to %v, want 1", total)
	}
	// Classes are sorted largest-first.
	for i := 1; i < len(rep.Classes); i++ {
		if rep.Classes[i].Ps > rep.Classes[i-1].Ps {
			t.Fatalf("classes not sorted: %+v", rep.Classes)
		}
	}
	if rep.ThroughputBps != 4096/(1e6*1e-12) {
		t.Fatalf("throughput = %v", rep.ThroughputBps)
	}
	if got := rep.ClassFrac(cpu.ClassOutFullWait); got != 0 {
		t.Fatalf("out-full frac = %v, want 0", got)
	}
}

func TestAttributeBusyDominant(t *testing.T) {
	r := Run{
		Label: "Stat/AssasinSb", Kernel: "Stat", Arch: "AssasinSb", Cores: 2,
		DurationPs: 1_000_000, InputBytes: 4096,
		ClassPs: [cpu.NumClasses]int64{900_000, 0, 90_000, 0, 10_000},
	}
	rep := Attribute(r)
	if rep.LargestClass != cpu.ClassCoreBusy {
		t.Fatalf("largest class = %s, want core-busy", rep.LargestClass)
	}
	if rep.LargestStall != cpu.ClassStreamRefillWait {
		t.Fatalf("largest stall = %s, want stream-refill-wait", rep.LargestStall)
	}
}

func TestAttributeEmptyRun(t *testing.T) {
	rep := Attribute(Run{Label: "empty"})
	if rep.LargestClass != cpu.ClassCoreBusy { // tiebreak: canonical order
		t.Fatalf("largest class of empty run = %s", rep.LargestClass)
	}
	for _, s := range rep.Classes {
		if s.Frac != 0 {
			t.Fatalf("empty run has nonzero fraction: %+v", s)
		}
	}
	if rep.ThroughputBps != 0 {
		t.Fatalf("empty run throughput = %v", rep.ThroughputBps)
	}
}

func TestComponentUtilizationAndDeltas(t *testing.T) {
	sink := telemetry.NewSink()
	sink.Gauge("flash", "ch0_busy_ps").Set(500_000)
	sink.Gauge("flash", "ch1_busy_ps").Set(250_000)
	sink.Gauge("xbar", "port0_busy_ps").Set(100_000)
	sink.Gauge("flash", "ch0_bytes").Set(1 << 20) // not a busy gauge: excluded
	sink.Counter("stream", "refill_stalls").Add(30)
	sink.Histogram("sched", "quantum_used_ps").Observe(1000)
	cur := sink.Metrics()

	r := memoryWallRun()
	r.Metrics = &cur
	rep := Attribute(r)

	byName := map[string]ComponentUtil{}
	for _, c := range rep.Components {
		byName[c.Component] = c
	}
	if got := byName["flash/ch0"].Util; got != 0.5 {
		t.Fatalf("flash/ch0 util = %v, want 0.5", got)
	}
	// Aggregate "flash" averages its two channels: (0.5 + 0.25) / 2.
	if got := byName["flash"].Util; got != 0.375 {
		t.Fatalf("flash aggregate util = %v, want 0.375", got)
	}
	if got := byName["xbar"].Util; got != 0.1 {
		t.Fatalf("xbar aggregate util = %v, want 0.1", got)
	}
	if _, ok := byName["flash/ch0_bytes"]; ok {
		t.Fatalf("bytes gauge leaked into component utilization")
	}
	if got := rep.Counters["stream/refill_stalls"]; got != 30 {
		t.Fatalf("counter = %d, want 30", got)
	}
	if len(rep.Histograms) != 1 || rep.Histograms[0].Metric != "sched/quantum_used_ps" {
		t.Fatalf("histograms = %+v", rep.Histograms)
	}
	if rep.Histograms[0].P50 == 0 {
		t.Fatalf("histogram P50 missing from report")
	}
}

func TestSortReportsDeterministic(t *testing.T) {
	a := Attribute(Run{Label: "Stat/Baseline", Kernel: "Stat", Arch: "Baseline"})
	b := Attribute(Run{Label: "AES/Baseline", Kernel: "AES", Arch: "Baseline"})
	c := Attribute(Run{Label: "Stat/AssasinSb", Kernel: "Stat", Arch: "AssasinSb"})
	got := []*RunReport{a, b, c}
	SortReports(got)
	want := []string{"AES/Baseline", "Stat/AssasinSb", "Stat/Baseline"}
	for i, r := range got {
		if r.Label != want[i] {
			t.Fatalf("sorted order %d = %s, want %s", i, r.Label, want[i])
		}
	}
}

func TestFormatAndJSONDeterministic(t *testing.T) {
	build := func() []*RunReport {
		return []*RunReport{Attribute(memoryWallRun())}
	}
	text := FormatReports(build())
	if !strings.Contains(text, "cache-dram-wait") || !strings.Contains(text, "Stat/Baseline") {
		t.Fatalf("table missing expected cells:\n%s", text)
	}
	if text != FormatReports(build()) {
		t.Fatalf("FormatReports not deterministic")
	}
	single := FormatReport(build()[0])
	if !strings.Contains(single, "largest stall: cache-dram-wait") {
		t.Fatalf("single-run report missing headline:\n%s", single)
	}

	var x, y bytes.Buffer
	if err := WriteJSON(&x, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&y, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Fatalf("JSON not deterministic")
	}
	var back []RunReport
	if err := json.Unmarshal(x.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back[0].LargestStall != cpu.ClassCacheDRAMWait {
		t.Fatalf("round-tripped report lost largest_stall")
	}
}
