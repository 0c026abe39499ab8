# Convenience entry points; every target is plain go tooling underneath.

.PHONY: all build test race fuzz-smoke bench bench-baseline diff-smoke alloc-gate profile profile-smoke ci

all: test

build:
	go build ./...

test: build
	go test ./...

# The data-race gate for the packages the interpreters touch, the
# telemetry sink (documented single-threaded; the race gate catches
# accidental sharing from tests), and the observability layer that serves
# concurrent scrapers against a running simulation. The cpu and data-plane
# equivalence soaks (internal/experiments) also run here, plus the
# request-trace parallel-determinism check and the observed fan-out check
# (every experiment's runs on private sinks): any Precise/Compiled or
# coalesced/per-page divergence, any worker-count-dependent request summary
# or merged metrics snapshot, and any data race is a release blocker.
race:
	go test -race ./internal/cpu/... ./internal/memhier/... ./internal/sim/... ./internal/telemetry/... ./internal/obs/... ./internal/runpool/...
	go test -race ./internal/experiments/ -run 'TestExecCompiledMatchesPrecise|TestExecEquivalenceWithCoreQuantum|TestDataPlane|TestRequestsParallelDeterminism|TestLoadParallelDeterminism|TestObservedFanOutParallelSafe'

# A short bounded pass over every fuzz target: the compiled-vs-precise
# differential fuzzer (its checked-in corpus under internal/cpu/testdata/fuzz
# seeds it with kernel-shaped programs), the assembler parser, the SLO
# duration and objective-spec parsers, the -load spec parser, the
# page-granular SparseMem paths against a byte-wise reference and the
# differential engine's input-format detection. go test -fuzz takes one
# target per package run.
fuzz-smoke:
	go test ./internal/cpu/ -run '^$$' -fuzz FuzzExecEquivalence -fuzztime 10s
	go test ./internal/asm/ -run '^$$' -fuzz FuzzParse -fuzztime 5s
	go test ./internal/telemetry/slo/ -run '^$$' -fuzz FuzzParseDuration -fuzztime 5s
	go test ./internal/telemetry/slo/ -run '^$$' -fuzz FuzzParseSpec -fuzztime 5s
	go test ./internal/experiments/ -run '^$$' -fuzz FuzzParseLoadSpec -fuzztime 5s
	go test ./internal/memhier/ -run '^$$' -fuzz FuzzSparseMem -fuzztime 5s
	go test ./internal/telemetry/diff/ -run '^$$' -fuzz FuzzDecode -fuzztime 5s

# Run the differential engine against the archived Stat metrics snapshots
# and check the ranked headline.
diff-smoke:
	scripts/diff-smoke.sh

# Zero-alloc regression gate: the event-queue and crossbar hot paths must
# report 0 allocs/op and the firmware steady-state guard must pass.
alloc-gate:
	scripts/alloc-gate.sh

# Per-experiment CPU/allocation profiles with top-10 cumulative tables
# (profiles land in profiles/), plus the guest hot-block table per
# experiment.
profile:
	scripts/profile.sh

# Guest-profiler smoke: a tiny -kprof run whose pprof export must parse
# with the real `go tool pprof` and symbolize to guest kernel pcs.
profile-smoke:
	scripts/profile-smoke.sh

# The full continuous-integration gate (mirrored by the GitHub workflow).
# It opens with the gofmt check: any file gofmt would rewrite fails it.
# benchmark/ is a Go module of its own, so the root ./... skips its
# golden-digest, ledger and compare tests; they run from inside it.
ci:
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt needed:"; echo "$$unformatted"; exit 1; }
	go vet ./...
	go build ./...
	go test ./...
	cd benchmark && go vet ./... && go test ./...
	$(MAKE) race
	$(MAKE) fuzz-smoke
	scripts/alloc-gate.sh
	scripts/serve-smoke.sh
	scripts/diff-smoke.sh
	scripts/profile-smoke.sh

# Quick micro-benchmark pass (3 samples; use bench-baseline for the
# committed 5-sample baselines).
bench:
	go test ./internal/cpu/ ./internal/memhier/ -run '^$$' -bench . -benchmem -count 3

# Regenerate the committed baselines under bench/ (micro benches + every
# BENCH_<exp>.json whole-experiment artifact).
bench-baseline:
	scripts/bench.sh
