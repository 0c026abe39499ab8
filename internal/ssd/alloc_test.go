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
// windows, scratchpads and the FTL maps are sized to the pages an offload
// touches, and the four cores share one translation of the program; this
// fails when one of them goes back to allocating the whole Table IV
// structure, or the program goes back to being translated once per core
// (about 110 KiB each). Measured on linux/amd64 with Go 1.24 (KiB):
// Baseline 822, UDP 490, Prefetch 843, AssasinSp 490, AssasinSb 490,
// AssasinSb$ 533. Each budget is that measurement plus 25%.
func TestOffloadAllocBudget(t *testing.T) {
	budgetKiB := map[Arch]uint64{
		Baseline:       1028,
		UDP:            613,
		Prefetch:       1054,
		AssasinSp:      613,
		AssasinSb:      613,
		AssasinSbCache: 667,
	}
	for _, a := range AllArchs() {
		if got := offloadAlloc(t, a) >> 10; got > budgetKiB[a] {
			t.Errorf("%s: one 16 KiB offload allocated %d KiB, budget %d KiB", a, got, budgetKiB[a])
		}
	}
}
