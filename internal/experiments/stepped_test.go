package experiments

import (
	"testing"

	"assasin/internal/ssd"
)

// TestCompiledSteppedShare bounds how much of the compiled engine's work
// falls back to the per-instruction interpreter: across every Table II
// kernel on the stream architectures at quick scale, under 2% of retired
// instructions may go through Core.step. What remains is code outside any
// recognized loop (LZ and PSF).
func TestCompiledSteppedShare(t *testing.T) {
	cfg := Quick()
	var stepped, insts int64
	for _, e := range table2Entries(cfg) {
		for _, arch := range []ssd.Arch{ssd.AssasinSp, ssd.AssasinSb, ssd.AssasinSbCache} {
			cores, rec := e.split(cfg)
			r, err := runStandalone(Config{}, runOpts{
				arch:       arch,
				cores:      cores,
				kernel:     e.kernel,
				inputs:     e.inputs,
				recordSize: rec,
				outKind:    e.out,
			})
			if err != nil {
				t.Fatalf("%s on %v: %v", e.name, arch, err)
			}
			var s, n int64
			for _, c := range r.instance.Cores {
				s += c.SteppedInstructions()
				n += c.Stats().Instructions
			}
			t.Logf("%-28s %-15v stepped %9d of %10d", e.name, arch, s, n)
			stepped += s
			insts += n
		}
	}
	share := float64(stepped) / float64(insts)
	t.Logf("stepped %d of %d retired instructions (%.2f%%)", stepped, insts, 100*share)
	if share >= 0.02 {
		t.Errorf("%.2f%% of retired instructions went through Core.step, want under 2%%", 100*share)
	}
}
