package benchmark

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// spin burns CPU in a function the profile test can find by name.
//
//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestParseProfileRoundTrip decodes a CPU profile this test records itself
// and finds its own hot function in the samples.
func TestParseProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(p.sampleTypes, ","); got != "samples/count,cpu/nanoseconds" {
		t.Fatalf("sample types %q", got)
	}
	if p.period <= 0 {
		t.Fatalf("period %d", p.period)
	}
	var hits, total int64
	for _, s := range p.samples {
		n := p.value(s, "samples/count")
		total += n
		for _, fn := range s.stack {
			if fn == "assasin/benchmark.spin" {
				hits += n
				if s.stack[len(s.stack)-1] == fn {
					t.Fatalf("stack %v not leaf first", s.stack)
				}
				break
			}
		}
		if ns := p.value(s, "cpu/nanoseconds"); ns != n*p.period {
			t.Fatalf("sample %v: %d ns for %d samples at period %d", s.stack, ns, n, p.period)
		}
	}
	if hits == 0 || hits*2 < total {
		t.Fatalf("spin is in %d of %d samples", hits, total)
	}
	if _, err := parseProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Fatal("a truncated profile decoded without error")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                                    "runtime",
		"assasin/internal/cpu.(*Core).run":                    "assasin/internal/cpu",
		"assasin/internal/cpu.(*Core).compile.func12":         "assasin/internal/cpu",
		"assasin/internal/telemetry/reqtrace.(*Tracer).Begin": "assasin/internal/telemetry/reqtrace",
		"assasin/internal/runpool.Map[go.shape.struct {}]":    "assasin/internal/runpool",
		"internal/runtime/maps.(*Map).getWithKeySmall":        "internal/runtime/maps",
		"crypto/sha256.block":                                 "crypto/sha256",
		"assasin/benchmark.(*offloadOp).exec":                 "assasin/benchmark",
		"sync.(*Mutex).Lock":                                  "sync",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSampleAttribution(t *testing.T) {
	for _, c := range []struct {
		stack       []string
		self, alloc string
	}{
		{[]string{"assasin/internal/memhier.(*Cache).Access", "assasin/internal/cpu.(*Core).run"}, "memhier", "memhier"},
		{[]string{"runtime.mallocgc", "runtime.growslice", "assasin/internal/ftl.(*FTL).Install"}, "runtime", "ftl"},
		{[]string{"sort.Search", "assasin/internal/sim.(*Queue).push", "assasin/internal/ssd.(*SSD).RunOffload"}, "sim", "sim"},
		{[]string{"crypto/sha256.block", "assasin/benchmark.offloadDigest"}, "other", "other"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime", "other"},
		{[]string{"assasin/internal/telemetry/slo.(*Engine).Tick"}, "telemetry", "telemetry"},
	} {
		if got := selfLayer(c.stack); got != c.self {
			t.Errorf("selfLayer(%v) = %s, want %s", c.stack, got, c.self)
		}
		if got := allocLayer(c.stack); got != c.alloc {
			t.Errorf("allocLayer(%v) = %s, want %s", c.stack, got, c.alloc)
		}
	}
}

// TestEveryInternalPackageHasALayer walks the simulator's packages: each
// must map to a named layer, never "other".
func TestEveryInternalPackageHasALayer(t *testing.T) {
	n := 0
	err := filepath.WalkDir("../internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		gos, _ := filepath.Glob(filepath.Join(path, "*.go"))
		if len(gos) == 0 {
			return nil
		}
		rel, err := filepath.Rel("..", path)
		if err != nil {
			return err
		}
		pkg := "assasin/" + filepath.ToSlash(rel)
		n++
		if l := layerOf(pkg); l == "" || l == "other" {
			t.Errorf("package %s maps to no named layer", pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 20 {
		t.Fatalf("found only %d packages under ../internal", n)
	}
}
