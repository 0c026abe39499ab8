package diff_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/ssd"
	"assasin/internal/telemetry"
	"assasin/internal/telemetry/analyze"
	"assasin/internal/telemetry/diff"
	"assasin/internal/telemetry/timeline"
)

// classRun is a run carrying only class times, given by class name.
func classRun(label string, classes map[string]int64) analyze.Run {
	run := analyze.Run{Label: label}
	for i, class := range cpu.ClassNames {
		run.ClassPs[i] = classes[class]
	}
	return run
}

func TestCompareRanksClassDeltas(t *testing.T) {
	a := classRun("a", map[string]int64{
		cpu.ClassCoreBusy:      100,
		cpu.ClassCacheDRAMWait: 500,
		cpu.ClassExecStall:     50,
	})
	b := classRun("b", map[string]int64{
		cpu.ClassCoreBusy:      90,
		cpu.ClassCacheDRAMWait: 20,
		cpu.ClassExecStall:     55,
	})
	rep := diff.Compare(a, b)

	if rep.TopClass != cpu.ClassCacheDRAMWait {
		t.Fatalf("TopClass = %q, want %q", rep.TopClass, cpu.ClassCacheDRAMWait)
	}
	if rep.Classes[0].DeltaPs != -480 {
		t.Errorf("top delta = %d, want -480", rep.Classes[0].DeltaPs)
	}
	if !strings.Contains(rep.Headline, cpu.ClassCacheDRAMWait) {
		t.Errorf("headline %q does not name the top class", rep.Headline)
	}
	// All five classes present, magnitudes non-increasing.
	if len(rep.Classes) != len(cpu.ClassNames) {
		t.Fatalf("got %d class rows, want %d", len(rep.Classes), len(cpu.ClassNames))
	}
	for i := 1; i < len(rep.Classes); i++ {
		prev, cur := rep.Classes[i-1].DeltaPs, rep.Classes[i].DeltaPs
		if abs(cur) > abs(prev) {
			t.Errorf("class ranking not sorted: |%d| after |%d|", cur, prev)
		}
	}
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestCompareCounterRanking(t *testing.T) {
	a := analyze.Run{Metrics: &telemetry.MetricsSnapshot{Counters: map[string]int64{
		"fw/pages": 1000, "xbar/bytes": 0, "dram/reads": 500, "same/count": 7,
	}}}
	b := analyze.Run{Metrics: &telemetry.MetricsSnapshot{Counters: map[string]int64{
		"fw/pages": 1010, "xbar/bytes": 800, "dram/reads": 0, "same/count": 7,
	}}}
	rep := diff.Compare(a, b)

	if rep.TopClass != "" {
		t.Errorf("TopClass = %q, want empty without class data", rep.TopClass)
	}
	// xbar/bytes (0 -> 800) outranks fw/pages (+10, ~1x) despite dram/reads
	// having a comparable |delta|: relative change weights the score.
	if rep.Counters[0].Key != "xbar/bytes" {
		t.Errorf("top counter = %q, want xbar/bytes (rows: %+v)", rep.Counters[0].Key, rep.Counters)
	}
	for _, d := range rep.Counters {
		if d.Key == "same/count" {
			t.Errorf("unchanged counter made the table: %+v", d)
		}
	}
	if !strings.Contains(rep.Headline, "xbar/bytes") {
		t.Errorf("headline %q should name the top counter", rep.Headline)
	}
}

// buildTimeline makes a tiny timeline with one dominant class.
func buildTimeline(run, class string, perSample int64) *timeline.Timeline {
	s := timeline.New(nil, timeline.Config{IntervalPs: 10})
	var cum int64
	s.AddProbe(func(emit func(string, int64)) {
		emit("class/"+class, cum)
	})
	for i := 1; i <= 4; i++ {
		cum += perSample
		s.Tick(int64(10 * i))
	}
	return s.Finish(run, 40)
}

func TestComparePhases(t *testing.T) {
	a := analyze.Run{Timeline: buildTimeline("a", "cache-dram-wait", 8)}
	b := analyze.Run{Timeline: buildTimeline("b", "core-busy", 8)}
	rep := diff.Compare(a, b)

	if rep.Phases == nil {
		t.Fatal("no phase comparison despite both timelines present")
	}
	if len(rep.Phases.A) != 1 || rep.Phases.A[0].Class != "cache-dram-wait" {
		t.Errorf("side a phases = %+v", rep.Phases.A)
	}
	if len(rep.Phases.B) != 1 || rep.Phases.B[0].Class != "core-busy" {
		t.Errorf("side b phases = %+v", rep.Phases.B)
	}
	cd := rep.Phases.ClassDurations
	if len(cd) != 2 || abs(cd[0].DeltaPs) != 40 {
		t.Errorf("class durations = %+v", cd)
	}
}

// statWords builds the tiny Table II Stat workload input.
func statWords(n int, seed uint32) []byte {
	b := make([]byte, n)
	x := seed
	for i := 0; i+4 <= n; i += 4 {
		x = x*1664525 + 1013904223
		binary.LittleEndian.PutUint32(b[i:], x)
	}
	return b
}

// TestStatBaselineVsAssasinSb pins the paper's memory-wall narrative: on
// the Stat workload, the top-ranked delta between Baseline and AssasinSb is
// the collapse of cache/DRAM wait — the stream buffers eliminate it.
func TestStatBaselineVsAssasinSb(t *testing.T) {
	rep := diff.Compare(statRun(t, ssd.Baseline), statRun(t, ssd.AssasinSb))

	if rep.TopClass != cpu.ClassCacheDRAMWait {
		t.Fatalf("top-ranked class = %q, want %q (classes: %+v)",
			rep.TopClass, cpu.ClassCacheDRAMWait, rep.Classes)
	}
	top := rep.Classes[0]
	if top.DeltaPs >= 0 {
		t.Errorf("cache-dram-wait delta = %+d ps, want a collapse (negative)", top.DeltaPs)
	}
	if top.BPs != 0 {
		t.Errorf("AssasinSb cache-dram-wait = %d ps, want 0 (stream buffers bypass the cache)", top.BPs)
	}
	if rep.Phases == nil {
		t.Error("both sides carried timelines but no phase comparison was built")
	}
	if !strings.Contains(rep.Format(), "cache-dram-wait") {
		t.Error("formatted report does not mention cache-dram-wait")
	}
}

func TestLoadFileAutodetects(t *testing.T) {
	dir := t.TempDir()
	side := statRun(t, ssd.Baseline)

	metrics := filepath.Join(dir, "metrics.json")
	if err := side.Timeline.WriteFile(filepath.Join(dir, "tl.json")); err != nil {
		t.Fatal(err)
	}
	mb, err := json.Marshal(side.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metrics, mb, 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := diff.LoadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics == nil || m.Label != "metrics" {
		t.Errorf("metrics load: label %q, metrics nil=%v", m.Label, m.Metrics == nil)
	}
	tl, err := diff.LoadFile(filepath.Join(dir, "tl.json"))
	if err != nil {
		t.Fatal(err)
	}
	if tl.Timeline == nil || tl.Label != "Stat/Baseline" {
		t.Errorf("timeline load: label %q, timeline nil=%v", tl.Label, tl.Timeline == nil)
	}

	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte(`{"foo": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := diff.LoadFile(filepath.Join(dir, "junk.json")); err == nil {
		t.Error("unrecognized JSON shape should fail to load")
	}
}

// TestCompareGuestBlocks pins the pc-granularity retelling of the class
// story: comparing profiled Baseline and AssasinSb Stat runs must yield a
// ranked per-block table, and a profile JSON written to disk must load back
// as a comparison side.
func TestCompareGuestBlocks(t *testing.T) {
	a := statRun(t, ssd.Baseline).Profile
	b := statRun(t, ssd.AssasinSb).Profile
	rep := diff.Compare(
		analyze.Run{Label: a.Label, Profile: a},
		analyze.Run{Label: b.Label, Profile: b},
	)
	if len(rep.Blocks) == 0 {
		t.Fatal("profiled sides produced no block deltas")
	}
	top := rep.Blocks[0]
	if !strings.HasPrefix(top.Key, "stat [") {
		t.Errorf("top block key = %q, want a stat block", top.Key)
	}
	if top.DeltaPs == 0 {
		t.Errorf("top block delta is zero: %+v", top)
	}
	for i := 1; i < len(rep.Blocks); i++ {
		if abs(rep.Blocks[i].DeltaPs) > abs(rep.Blocks[i-1].DeltaPs) {
			t.Errorf("blocks not ranked by |delta|: %+v", rep.Blocks)
		}
	}
	if !strings.Contains(rep.Format(), "guest hot blocks") {
		t.Error("formatted report lacks the guest hot blocks section")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "profile.json")
	jb, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, jb, 0o644); err != nil {
		t.Fatal(err)
	}
	side, err := diff.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if side.Profile == nil || side.Label != a.Label {
		t.Errorf("profile load: label %q, profile nil=%v", side.Label, side.Profile == nil)
	}
}

func TestCompareDeterministicJSON(t *testing.T) {
	build := func() []byte {
		rep := diff.Compare(statRun(t, ssd.Baseline), statRun(t, ssd.AssasinSb))
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Error("differential JSON not byte-identical across identical runs")
	}
}
