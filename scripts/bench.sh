#!/bin/sh
# Captures the repo's benchmark baselines into bench/:
#   - BENCH_micro.txt: tier-2 micro benchmarks (interpreter, stream buffer,
#     cache, DRAM paths), 5 samples each for benchstat-able comparisons.
#   - BENCH_<exp>.json: every whole-experiment artifact at the quick scale,
#     via assasin-bench -json. These are the results goldens that
#     TestResultsGolden (cmd/assasin-bench) reruns and compares row for row;
#     regenerate them only for an intended change in simulated results.
#     wall_seconds is informational: assasin-perf (benchmark/) measures speed.
# Run from anywhere; writes relative to the repo root. Compare micro
# benchmarks against the committed baseline with benchstat.
set -eu
cd "$(dirname "$0")/.."
mkdir -p bench
go test ./internal/cpu/ ./internal/memhier/ -run '^$' -bench . -benchmem -count 5 | tee bench/BENCH_micro.txt
go run ./cmd/assasin-bench -quick -verify -exp all -json bench
