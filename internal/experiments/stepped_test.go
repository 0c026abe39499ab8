package experiments

import (
	"testing"

	"assasin/internal/ssd"
)

// TestCompiledSteppedShare bounds how much of the compiled engine's work
// falls back to the per-instruction interpreter: on each of the six
// architectures, across every workload row at Table II's quick-scale input,
// under 2% of retired instructions may go through Core.step. The bound
// covers both lowerings and both state bases: the software-managed
// lowering with DRAM state (Baseline, Prefetch) and scratchpad state (UDP,
// AssasinSp), and the stream ISA (AssasinSb, AssasinSb$). What remains is
// code outside any recognized loop (LZ and PSF).
func TestCompiledSteppedShare(t *testing.T) {
	cfg := Quick()
	for _, arch := range ssd.AllArchs() {
		var stepped, insts int64
		for i := range workloads {
			w := &workloads[i]
			in := w.inputs(cfg.streamBytes(w, int(cfg.KernelMB*(1<<20)/2)), w.seed)
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
		share := float64(stepped) / float64(insts)
		t.Logf("%v: stepped %d of %d retired instructions (%.2f%%)", arch, stepped, insts, 100*share)
		if share >= 0.02 {
			t.Errorf("%v: %.2f%% of retired instructions went through Core.step, want under 2%%", arch, 100*share)
		}
	}
}
