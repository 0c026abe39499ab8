package ssd

import (
	"runtime"
	"testing"

	"assasin/internal/firmware"
	"assasin/internal/kernels"
)

// offloadAlloc returns the bytes allocated by one 16 KiB AES offload on a
// fresh 4-core SSD of arch a: ssd.New, InstallBytes, BuildTasks and
// RunOffload.
func offloadAlloc(t *testing.T, a Arch) uint64 {
	t.Helper()
	data := makeWords(16<<10, 13)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := New(Options{Arch: a, Cores: 4})
	lpas, err := s.InstallBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := s.BuildTasks(KernelRun{
		Kernel: kernels.AES{}, Inputs: [][]int{lpas}, InputBytes: []int64{int64(len(data))},
		RecordSize: 16, Cores: 4, OutKind: firmware.OutToFlash,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunOffload(tasks, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestOffloadAllocBudget bounds the bytes one 16 KiB AES offload allocates
// on a fresh 4-core SSD of each architecture, set-up included. Stream
// windows, scratchpads, cache line state, the flash block tables and the
// FTL maps are sized to the lines and pages an offload touches, stored
// pages are the installed slab and the drained output chunks themselves,
// each core's stream buffer is built once for the first request, and every
// SSD shares the program memo's build, state image and translation; this
// fails when one of them goes back to allocating the whole Table IV
// structure, or the program goes back to being built and translated per
// offload (about 180 KiB for AES). The memo is process-wide, so each
// architecture first runs one offload to build its program: without that
// warm-up the measurement would depend on which tests ran first. Measured
// on linux/amd64 with Go 1.24 (KiB): Baseline 304, UDP 165, Prefetch 324,
// AssasinSp 165, AssasinSb 165, AssasinSb$ 174. Each budget is that
// measurement plus 25%.
func TestOffloadAllocBudget(t *testing.T) {
	budgetKiB := map[Arch]uint64{
		Baseline:       380,
		UDP:            206,
		Prefetch:       405,
		AssasinSp:      206,
		AssasinSb:      206,
		AssasinSbCache: 218,
	}
	for _, a := range AllArchs() {
		offloadAlloc(t, a) // builds the memo's program, if no test has
		got := offloadAlloc(t, a) >> 10
		t.Logf("%s: %d KiB", a, got)
		if got > budgetKiB[a] {
			t.Errorf("%s: one 16 KiB offload allocated %d KiB, budget %d KiB", a, got, budgetKiB[a])
		}
	}
}
