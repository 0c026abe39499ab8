#!/bin/sh
# Alloc-regression gate for the simulator's hot paths: the event queue, the
# crossbar arbitration, the cache hierarchy and the compiled core's
# loop-driver, scratchpad and cached-load benchmarks must report exactly 0
# allocs/op, and
# the firmware steady-state guard tests (which pin the whole
# feeder -> crossbar -> stream-buffer page path, one delivery event per
# page, both with request tracing disabled and with a live request record
# attached, and the kept output path, where flash stores and the host
# output keeps each drained chunk, at exactly one chunk per page) must pass,
# as must the guard that a 1024-page offload allocates no more bytes than a
# 64-page one, so no feeder queue grows with the stream. Any per-event or
# per-page allocation that sneaks back in fails CI here with a benchmark
# name attached. The guest-profiler guard
# rides along: with no kprof profiler attached, both exec engines must stay
# allocation-free per Run slice (the disabled half of the kprof zero-cost
# contract).
#
# Every test and benchmark is named exactly, and scripts/require-tests.sh
# fails the gate when a name matches nothing in its package.
set -eu
cd "$(dirname "$0")/.."

OUT="$(mktemp)"
RUN="$(mktemp)"
trap 'rm -f "$OUT" "$RUN"' EXIT

# anchored NAME...: a -run/-bench pattern matching exactly the names.
anchored() {
	echo "^($(echo "$@" | tr ' ' '|'))\$"
}

# bench PKG NAME...: run the named benchmarks, collecting their lines.
bench() {
	pkg=$1
	shift
	scripts/require-tests.sh "$pkg" "$@"
	go test "$pkg" -run '^$' -bench "$(anchored "$@")" -benchmem -benchtime 10000x >"$RUN" || {
		cat "$RUN"
		exit 1
	}
	tee -a "$OUT" <"$RUN"
}

# run PKG NAME...: run the named tests.
run() {
	pkg=$1
	shift
	scripts/require-tests.sh "$pkg" "$@"
	go test "$pkg" -run "$(anchored "$@")" -count 1
}

bench ./internal/sim/ BenchmarkEventQueue BenchmarkEventQueueMixed
bench ./internal/crossbar/ BenchmarkCrossbarArbitration
# The compiled engine's flat loop driver runs every recognized loop: an
# ALU-run element with a branch back edge, a long mixed body resumed across
# quanta, a stream-load loop fed by page pushes, table lookups through
# the scratchpad's in-place load and store path, and a load walk through the
# Table IV L1D and L2.
bench ./internal/cpu/ BenchmarkCoreCompiledBlock BenchmarkCoreLongBody BenchmarkStreamLoadPath BenchmarkScratchpadLoadPath BenchmarkCachedLoadPath
# The cache's hit path and the Prefetch configuration's demand path. Line
# state is built in chunks on the first install into a line they cover;
# those few builds amortize to 0 allocs/op, and any per-access allocation
# fails here. The stream buffer's input loads and output page drains run
# over pushed pages and reused chunks, so neither allocates per page.
bench ./internal/memhier/ BenchmarkCacheHit BenchmarkCachePrefetchStream BenchmarkStreamLoad BenchmarkOutStreamDrain

bad=$(awk '/allocs\/op/ && $(NF-1) != 0 { print $1 }' "$OUT")
if [ -n "$bad" ]; then
	echo "alloc-gate: hot-path benchmarks allocate:" >&2
	echo "$bad" >&2
	exit 1
fi

run ./internal/firmware/ TestDataPlaneSteadyStateZeroAlloc TestFeederBytesIndependentOfStreamLength TestReqtraceSteadyStateZeroAlloc TestKeptOutputSteadyStateAlloc
run ./internal/telemetry/reqtrace/ TestSteadyStateZeroAlloc TestNilZeroCost
run ./internal/cpu/ TestKProfDisabledZeroAlloc
# The streaming-SLO half of the zero-cost contract: window ticks and
# rotations allocate nothing in steady state, nil windows are free, and the
# engine's per-request observation path is allocation-free.
run ./internal/telemetry/window/ TestWindowTickZeroAlloc TestNilWindowsZeroCost
run ./internal/telemetry/slo/ TestObserveRequestZeroAlloc
# The conventional-command serving path: a pooled command record carries one
# traced read through nvme, reqtrace, telemetry and the slo engine without
# allocating.
run ./internal/nvme/ TestSubmitSteadyStateZeroAlloc
# Set-up cost: one 16 KiB offload per architecture stays within its byte
# budget, so stream windows, scratchpads and FTL maps stay sized to the
# pages an offload touches.
run ./internal/ssd/ TestOffloadAllocBudget

echo "alloc-gate: hot paths are allocation-free"
