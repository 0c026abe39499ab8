package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"assasin/internal/experiments"
)

// goldenFile is the part of a BENCH_<exp>.json envelope the golden test
// reads: wall_seconds is host timing and is not compared.
type goldenFile struct {
	Experiment string             `json:"experiment"`
	Config     experiments.Config `json:"config"`
	Rows       json.RawMessage    `json:"rows"`
}

func readGolden(t *testing.T, path string) goldenFile {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return g
}

// TestResultsGolden reruns every experiment that has a committed
// bench/BENCH_<exp>.json with the config recorded in that file and requires
// the same rows byte for byte. Simulation is deterministic, so any
// difference is a change in simulated behavior. Only wall_seconds and
// config.Workers (which cannot change results) are ignored. scripts/bench.sh
// regenerates the files after an intended change.
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs skipped in -short")
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "bench", "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed bench/BENCH_*.json files (err %v)", err)
	}
	// fig16 feeds fig17/18 and fig21 feeds fig22 through the Runner cache,
	// so experiments recorded with the same config share one Runner.
	runners := map[string]*experiments.Runner{}
	for _, path := range files {
		want := readGolden(t, path)
		name := want.Experiment
		if file := "BENCH_" + name + ".json"; filepath.Base(path) != file {
			t.Errorf("%s records experiment %q", path, name)
			continue
		}
		cfg := want.Config
		cfg.Workers = 2
		if name == "load" {
			// The load workload is recorded in its rows, not in config.
			var lr experiments.LoadResult
			if err := json.Unmarshal(want.Rows, &lr); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			cfg.Load = &lr.Config
		}
		key, _ := json.Marshal(want.Config) // plain fields once decoded: cannot fail
		rn := runners[string(key)]
		if rn == nil {
			rn = new(experiments.Runner)
			runners[string(key)] = rn
		}
		rows, _, err := rn.Run(name, cfg)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		dir := t.TempDir()
		if err := writeJSON(dir, name, cfg, rows, 0, nil); err != nil {
			t.Fatal(err)
		}
		got := readGolden(t, filepath.Join(dir, "BENCH_"+name+".json"))
		if where := firstDiff("rows", want.Rows, got.Rows); where != "" {
			t.Errorf("%s: results differ from %s at %s", name, path, where)
		}
	}
}

// firstDiff returns "" when want and got are byte-identical, else the path
// of the first differing element: array rows by index, object fields by
// sorted key, strings by line.
func firstDiff(path string, want, got json.RawMessage) string {
	if bytes.Equal(want, got) {
		return ""
	}
	var wa, ga []json.RawMessage
	if json.Unmarshal(want, &wa) == nil && json.Unmarshal(got, &ga) == nil {
		for i := 0; i < len(wa) && i < len(ga); i++ {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), wa[i], ga[i]); d != "" {
				return d
			}
		}
		return fmt.Sprintf("%s: %d rows, want %d", path, len(ga), len(wa))
	}
	var wo, gobj map[string]json.RawMessage
	if json.Unmarshal(want, &wo) == nil && json.Unmarshal(got, &gobj) == nil && wo != nil && gobj != nil {
		keys := make([]string, 0, len(wo))
		for k := range wo {
			keys = append(keys, k)
		}
		for k := range gobj {
			if _, ok := wo[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d := firstDiff(path+"."+k, wo[k], gobj[k]); d != "" {
				return d
			}
		}
	}
	var ws, gs string
	if json.Unmarshal(want, &ws) == nil && json.Unmarshal(got, &gs) == nil {
		wl, gl := strings.Split(ws, "\n"), strings.Split(gs, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				return fmt.Sprintf("%s line %d: got %q, want %q", path, i+1, gl[i], wl[i])
			}
		}
		return fmt.Sprintf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
	return fmt.Sprintf("%s: got %s, want %s", path, got, want)
}
