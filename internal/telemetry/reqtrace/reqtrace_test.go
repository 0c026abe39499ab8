package reqtrace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"assasin/internal/cpu"
	"assasin/internal/telemetry"
)

// complete runs one synthetic request through tr with the given shape and
// returns it (still owned by the tracer).
func synthetic(tr *Tracer, submit, start, halt, complete int64, busy, refill int64) *Request {
	r := tr.Begin("offload", "k/arch", submit)
	r.TaskSetup(0, 3)
	r.AddPage(0, 4096, 10, 20, 5, start)
	r.NoteEOS(0, halt-1)
	r.NoteHalt(0, halt)
	r.SetCoreDelta(0, start, [cpu.NumClasses]int64{busy, 0, refill, 0, 0}, 100, 2)
	tr.Complete(r, complete)
	return r
}

func sumSegments(segs []Segment) int64 {
	var total int64
	for _, sg := range segs {
		total += sg.DurPs
	}
	return total
}

func TestCriticalPathExactness(t *testing.T) {
	cases := []struct {
		name                          string
		submit, start, halt, complete int64
		busy, refill                  int64
	}{
		{"plain", 100, 200, 1200, 1500, 600, 400},
		{"no drain", 0, 0, 1000, 1000, 700, 300},
		{"window overflow", 0, 0, 500, 500, 600, 400},
		{"core clock behind submit", 1000, 400, 1600, 1700, 300, 300},
		{"zero latency", 50, 50, 50, 50, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := New(nil, Config{TopK: 4})
			r := synthetic(tr, c.submit, c.start, c.halt, c.complete, c.busy, c.refill)
			wantLat := c.complete - c.submit
			if wantLat < 0 {
				wantLat = 0
			}
			if r.LatencyPs != wantLat {
				t.Fatalf("latency = %d, want %d", r.LatencyPs, wantLat)
			}
			if got := sumSegments(r.Critical); got != r.LatencyPs {
				t.Fatalf("segments sum to %d, latency is %d (%v)", got, r.LatencyPs, r.Critical)
			}
			for _, sg := range r.Critical {
				if sg.DurPs <= 0 {
					t.Fatalf("non-positive segment %v", sg)
				}
			}
		})
	}
}

// TestCriticalPathClasses pins the segment layout of a well-formed request:
// queueing absorbs the pre-dispatch gap, the exec-window classes appear in
// attribution order, drain covers halt to completion, and nothing is
// unattributed.
func TestCriticalPathClasses(t *testing.T) {
	tr := New(nil, Config{TopK: 4})
	r := synthetic(tr, 100, 200, 1300, 1500, 600, 400)
	// Window = [halt-sum, halt] = [300, 1300]; queueing = 300-100.
	want := []Segment{
		{ClassQueueing, 200},
		{cpu.ClassCoreBusy, 600},
		{cpu.ClassStreamRefillWait, 400},
		{ClassDrain, 200},
	}
	if len(r.Critical) != len(want) {
		t.Fatalf("critical = %v, want %v", r.Critical, want)
	}
	for i := range want {
		if r.Critical[i] != want[i] {
			t.Fatalf("segment %d = %v, want %v", i, r.Critical[i], want[i])
		}
	}
}

// TestIOPathNormalization checks the staged-chain path (conventional IO):
// stages survive verbatim when they sum to the latency, get truncated when
// they overshoot, and pad as unattributed when they undershoot.
func TestIOPathNormalization(t *testing.T) {
	mk := func(latency int64, stages ...int64) []Segment {
		tr := New(nil, Config{TopK: 2})
		r := tr.Begin("io-read", "", 0)
		for _, d := range stages {
			r.AddPathClass(IDFlashWait, d)
		}
		tr.Complete(r, latency)
		return r.Critical
	}
	if got := mk(100, 60, 40); sumSegments(got) != 100 || len(got) != 2 {
		t.Fatalf("exact chain normalized to %v", got)
	}
	if got := mk(80, 60, 40); sumSegments(got) != 80 || len(got) != 2 || got[1].DurPs != 20 {
		t.Fatalf("overshooting chain normalized to %v", got)
	}
	got := mk(120, 60, 40)
	if sumSegments(got) != 120 || got[len(got)-1].Class != ClassUnattributed {
		t.Fatalf("undershooting chain normalized to %v", got)
	}
}

// TestTopKRetention checks ordering and eviction: (latency desc, id asc),
// independent of completion order.
func TestTopKRetention(t *testing.T) {
	tr := New(nil, Config{TopK: 3})
	lats := []int64{50, 900, 200, 900, 10, 700}
	for _, lat := range lats {
		r := tr.Begin("offload", "", 0)
		tr.Complete(r, lat)
	}
	sum := tr.Summary("x")
	if sum.Count != int64(len(lats)) {
		t.Fatalf("count = %d", sum.Count)
	}
	if len(sum.Slowest) != 3 {
		t.Fatalf("retained %d, want 3", len(sum.Slowest))
	}
	// IDs are 1-based in Begin order: latencies 900(id2), 900(id4), 700(id6).
	wantIDs := []uint64{2, 4, 6}
	for i, want := range wantIDs {
		if sum.Slowest[i].ID != want {
			t.Fatalf("slowest[%d].ID = %d, want %d (slowest=%+v)", i, sum.Slowest[i].ID, want, sum.Slowest)
		}
	}
	if sum.Find(4) == nil || sum.Find(5) != nil {
		t.Fatal("Find does not match retention")
	}
}

// TestTopKRetentionMatchesSort checks retention, early reject included,
// against sorting every request by (latency desc, id asc), over latencies
// drawn from a small range so that ties with the K-th request are common,
// and requests completing out of ID order.
func TestTopKRetentionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(6)
		tr := New(nil, Config{TopK: k})
		type done struct {
			id  uint64
			lat int64
		}
		var all []done
		var open []*Request
		for i := 0; i < 200; i++ {
			open = append(open, tr.Begin("offload", "", 0))
		}
		rng.Shuffle(len(open), func(i, j int) { open[i], open[j] = open[j], open[i] })
		for _, r := range open {
			lat := int64(rng.Intn(20))
			all = append(all, done{r.ID, lat})
			tr.Complete(r, lat)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].lat != all[j].lat {
				return all[i].lat > all[j].lat
			}
			return all[i].id < all[j].id
		})
		got := tr.Summary("x").Slowest
		if len(got) != k {
			t.Fatalf("trial %d: retained %d, want %d", trial, len(got), k)
		}
		for i, r := range got {
			if r.ID != all[i].id || r.LatencyPs != all[i].lat {
				t.Fatalf("trial %d: slowest[%d] = id %d lat %d, want id %d lat %d", trial, i, r.ID, r.LatencyPs, all[i].id, all[i].lat)
			}
		}
	}
}

// TestPooling checks that evicted and aborted records are reused rather
// than reallocated.
func TestPooling(t *testing.T) {
	tr := New(nil, Config{TopK: 1})
	a := tr.Begin("offload", "", 0)
	tr.Complete(a, 100)
	b := tr.Begin("offload", "", 0)
	tr.Complete(b, 50) // evicted immediately (slower request retained)
	c := tr.Begin("offload", "", 0)
	if c != b {
		t.Fatal("evicted record was not pooled")
	}
	tr.Abort(c)
	d := tr.Begin("offload", "", 0)
	if d != c {
		t.Fatal("aborted record was not pooled")
	}
	if d.ID != 4 {
		t.Fatalf("ID = %d, want monotonic 4", d.ID)
	}
}

// TestSteadyStateZeroAlloc pins the pooled steady state: once the top-K set
// is saturated and record capacity is warm, tracing a request allocates
// nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	tr := New(nil, Config{TopK: 2})
	for i := 0; i < 8; i++ {
		r := tr.Begin("offload", "", 0)
		r.TaskSetup(0, 0)
		r.AddPage(0, 4096, 1, 2, 3, 10)
		r.NoteHalt(0, 90)
		r.SetCoreDelta(0, 10, [cpu.NumClasses]int64{50, 10, 10, 5, 5}, 10, 1)
		tr.Complete(r, 100)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r := tr.Begin("offload", "", 0)
		r.TaskSetup(0, 0)
		r.AddPage(0, 4096, 1, 2, 3, 10)
		r.NoteHalt(0, 90)
		r.SetCoreDelta(0, 10, [cpu.NumClasses]int64{50, 10, 10, 5, 5}, 10, 1)
		tr.Complete(r, 100)
	})
	if allocs != 0 {
		t.Fatalf("steady-state tracing allocates %.1f per request, want 0", allocs)
	}
}

// TestNilZeroCost pins the disabled contract: every method on a nil tracer
// and nil request is a safe no-op and allocates nothing.
func TestNilZeroCost(t *testing.T) {
	var tr *Tracer
	var r *Request
	allocs := testing.AllocsPerRun(100, func() {
		r2 := tr.Begin("offload", "x", 10)
		r2.TaskSetup(0, 1)
		r2.AddPage(0, 4096, 1, 2, 3, 4)
		r2.NoteEOS(0, 5)
		r2.AddDrain(0, 4096, 6, 7)
		r2.NoteHalt(0, 8)
		r2.SetCoreDelta(0, 0, [cpu.NumClasses]int64{1, 2, 3, 4, 5}, 6, 7)
		r2.AddPathClass(IDFlashWait, 9)
		tr.Complete(r2, 10)
		tr.Abort(r)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocates %.1f per op, want 0", allocs)
	}
	if tr.Count() != 0 || tr.Summary("x") != nil {
		t.Fatal("nil tracer is not inert")
	}
}

// TestSummaryDeterminism checks that two tracers fed identical request
// streams produce byte-identical JSON and text.
func TestSummaryDeterminism(t *testing.T) {
	build := func() *Summary {
		tr := New(telemetry.NewSink(), Config{TopK: 4})
		synthetic(tr, 100, 200, 1300, 1500, 600, 400)
		synthetic(tr, 0, 50, 950, 1000, 500, 400)
		return tr.Summary("k/arch")
	}
	var a, b bytes.Buffer
	if err := WriteSummariesJSON(&a, []*Summary{build()}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSummariesJSON(&b, []*Summary{build()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("summary JSON is not deterministic")
	}
	var decoded []Summary
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0].Count != 2 {
		t.Fatalf("decoded = %+v", decoded)
	}
	var txt bytes.Buffer
	if err := build().WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "requests k/arch: 2 completed") {
		t.Fatalf("text = %q", txt.String())
	}
}

// TestHistogramsOnSink checks that completion feeds the "req" component
// histograms (latency plus one per critical class).
func TestHistogramsOnSink(t *testing.T) {
	sink := telemetry.NewSink()
	tr := New(sink, Config{TopK: 2})
	synthetic(tr, 100, 200, 1300, 1500, 600, 400)
	snap := sink.Metrics()
	lat, ok := snap.Histograms["req/latency_ps"]
	if !ok || lat.Count != 1 {
		t.Fatalf("latency histogram = %+v", snap.Histograms)
	}
	if _, ok := snap.Histograms["req/crit_"+ClassQueueing+"_ps"]; !ok {
		t.Fatalf("missing queueing class histogram: %v", snap.Histograms)
	}
}

// TestPathStageOutsideTable checks the documented rule for classes outside
// the class table: AddPathClass with an out-of-range ID records the stage as
// unattributed, so the path still sums to the latency and every total lands
// on a table class.
func TestPathStageOutsideTable(t *testing.T) {
	sink := telemetry.NewSink()
	tr := New(sink, Config{TopK: 2})
	r := tr.Begin("io-read", "", 0)
	r.AddPathClass(IDFlashWait, 30)
	r.AddPathClass(numClasses, 20)
	r.AddPathClass(numClasses+3, 10)
	r.AddPathClass(IDHostLink, 40)
	tr.Complete(r, 100)
	want := []Segment{
		{ClassFlashWait, 30},
		{ClassUnattributed, 20},
		{ClassUnattributed, 10},
		{ClassHostLink, 40},
	}
	if len(r.Critical) != len(want) {
		t.Fatalf("critical = %v, want %v", r.Critical, want)
	}
	for i := range want {
		if r.Critical[i] != want[i] {
			t.Fatalf("segment %d = %v, want %v", i, r.Critical[i], want[i])
		}
	}
	sum := tr.Summary("x")
	if got := sum.CriticalTotalsPs; len(got) != 3 || got[ClassUnattributed] != 30 || got[ClassFlashWait] != 30 || got[ClassHostLink] != 40 {
		t.Fatalf("critical totals = %v", got)
	}
	snap := sink.Metrics()
	if h := snap.Histograms["req/crit_"+ClassUnattributed+"_ps"]; h.Count != 2 {
		t.Fatalf("unattributed histogram = %+v", h)
	}
	crit := 0
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "req/crit_") {
			crit++
		}
	}
	if crit != 3 {
		t.Fatalf("%d req/crit_ histograms, want 3 (out-of-table IDs register none)", crit)
	}
}

// TestClassTableNames pins every ClassID to its exported class name.
func TestClassTableNames(t *testing.T) {
	names := map[ClassID]string{
		idQueueing:     ClassQueueing,
		idDrain:        ClassDrain,
		idUnattributed: ClassUnattributed,
		IDFlashWait:    ClassFlashWait,
		IDDRAMWait:     ClassDRAMWait,
		IDHostLink:     ClassHostLink,
	}
	for i, name := range cpu.ClassNames {
		names[ClassID(i)] = name
	}
	if len(names) != int(numClasses) {
		t.Fatalf("table has %d classes, test names %d", numClasses, len(names))
	}
	for id, name := range names {
		if classNames[id] != name {
			t.Fatalf("class %d: table %q, want %q", id, classNames[id], name)
		}
	}
}
