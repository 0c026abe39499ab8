#!/bin/sh
# Alloc-regression gate for the simulator's hot paths: the event queue and
# the crossbar arbitration benchmarks must report exactly 0 allocs/op, and
# the firmware steady-state guard tests (which pin the whole
# feeder -> crossbar -> stream-buffer page path, both with request tracing
# disabled and with a live request record attached) must pass. Any per-event
# or per-page allocation that sneaks back in fails CI here with a benchmark
# name attached. The guest-profiler guard rides along: with no kprof
# profiler attached, both exec engines must stay allocation-free per
# Run slice (the disabled half of the kprof zero-cost contract).
set -eu
cd "$(dirname "$0")/.."

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

go test ./internal/sim/ -run '^$' -bench 'BenchmarkEventQueue' -benchmem -benchtime 10000x | tee "$OUT"
go test ./internal/crossbar/ -run '^$' -bench 'BenchmarkCrossbarArbitration' -benchmem -benchtime 10000x | tee -a "$OUT"

bad=$(awk '/allocs\/op/ && $(NF-1) != 0 { print $1 }' "$OUT")
if [ -n "$bad" ]; then
	echo "alloc-gate: hot-path benchmarks allocate:" >&2
	echo "$bad" >&2
	exit 1
fi

go test ./internal/firmware/ -run 'TestDataPlaneSteadyStateZeroAlloc|TestReqtraceSteadyStateZeroAlloc' -count 1
go test ./internal/telemetry/reqtrace/ -run 'TestSteadyStateZeroAlloc|TestNilZeroCost' -count 1
go test ./internal/cpu/ -run 'TestKProfDisabledZeroAlloc' -count 1
# The streaming-SLO half of the zero-cost contract: window ticks and
# rotations allocate nothing in steady state, nil windows are free, and the
# engine's per-request observation path is allocation-free.
go test ./internal/telemetry/window/ -run 'TestWindowTickZeroAlloc|TestNilWindowsZeroCost' -count 1
go test ./internal/telemetry/slo/ -run 'TestObserveRequestZeroAlloc' -count 1
# The conventional-command serving path: a pooled command record carries one
# traced read through nvme, reqtrace, telemetry and the slo engine without
# allocating.
go test ./internal/nvme/ -run 'TestSubmitSteadyStateZeroAlloc' -count 1
# Set-up cost: one 16 KiB offload per architecture stays within its byte
# budget, so stream windows, scratchpads and FTL maps stay sized to the
# pages an offload touches.
go test ./internal/ssd/ -run 'TestOffloadAllocBudget' -count 1

echo "alloc-gate: hot paths are allocation-free"
