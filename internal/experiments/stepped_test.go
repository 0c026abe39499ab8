package experiments

import (
	"testing"

	"assasin/internal/ssd"
)

// TestCompiledSteppedShare bounds how much of the compiled engine's work
// falls back to the per-instruction interpreter: across every workload row
// at Table II's quick-scale input on the stream architectures, under 2% of
// retired instructions may go through Core.step. What remains is code
// outside any recognized loop (LZ and PSF).
func TestCompiledSteppedShare(t *testing.T) {
	cfg := Quick()
	var stepped, insts int64
	for i := range workloads {
		w := &workloads[i]
		in := w.inputs(cfg.streamBytes(w, int(cfg.KernelMB*(1<<20)/2)), w.seed)
		for _, arch := range []ssd.Arch{ssd.AssasinSp, ssd.AssasinSb, ssd.AssasinSbCache} {
			r, err := runStandalone(Config{}, w.opts(arch, cfg.Cores, in))
			if err != nil {
				t.Fatalf("%s on %v: %v", w.kernel.Name(), arch, err)
			}
			var s, n int64
			for _, c := range r.SSD.Cores {
				s += c.SteppedInstructions()
				n += c.Stats().Instructions
			}
			t.Logf("%-14s %-15v stepped %9d of %10d", w.kernel.Name(), arch, s, n)
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
