package benchmark

import (
	"embed"
	"encoding/json"
	"fmt"
)

// golden holds the committed per-op simulated-result digests of the
// full-size workloads: golden/seed<N>.json maps workload → op → digest.
// Regenerate them with `go test -run TestGoldenDigests -update`.
//
//go:embed golden/*.json
var golden embed.FS

// goldenSeeds are the seeds with committed digests: seed 1, and seed 2
// held out from tuning.
var goldenSeeds = []int64{1, 2}

func goldenPath(seed int64) string { return fmt.Sprintf("golden/seed%d.json", seed) }

// goldenDigests returns the committed digests of a workload's ops for seed,
// or nil when none apply: another seed, or inputs not at full size.
func goldenDigests(seed int64, workload string, scale float64) map[string]string {
	if scale != 1 {
		return nil
	}
	b, err := golden.ReadFile(goldenPath(seed))
	if err != nil {
		return nil
	}
	var g map[string]map[string]string
	if err := json.Unmarshal(b, &g); err != nil {
		panic(fmt.Sprintf("embedded %s: %v", goldenPath(seed), err)) // the files are build inputs
	}
	return g[workload]
}
