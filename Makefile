# Convenience entry points; every target is plain go tooling underneath.

.PHONY: all build test race race-names fuzz-smoke examples-smoke bench bench-baseline diff-smoke alloc-gate profile profile-smoke ci

all: test

build:
	go build ./...

test: build
	go test ./...

# The data-race gate for the packages the interpreters touch, the
# telemetry sink (documented single-threaded; the race gate catches
# accidental sharing from tests), and the observability layer that serves
# concurrent scrapers against a running simulation. The oracle soaks
# (internal/experiments: compiled vs precise over every workload row and
# architecture, and kprof reconciliation) also run here, plus the
# request-trace parallel-determinism check and the observed fan-out check
# (every experiment's runs on private sinks): any Precise/Compiled
# divergence, any worker-count-dependent request summary or merged metrics
# snapshot, and any data race is a release blocker.
RACE_TESTS = TestExecCompiledMatchesPrecise TestKProfReconciliationSoak \
	TestRequestsParallelDeterminism TestLoadParallelDeterminism TestObservedFanOutParallelSafe
empty :=
space := $(empty) $(empty)

race: race-names
	go test -race ./internal/cpu/... ./internal/memhier/... ./internal/sim/... ./internal/telemetry/... ./internal/obs/... ./internal/runpool/...
	go test -race ./internal/experiments/ -run '^($(subst $(space),|,$(strip $(RACE_TESTS))))$$'

# Fails when a RACE_TESTS name matches no test in internal/experiments, so
# a renamed test cannot drop out of the race gate unnoticed.
race-names:
	@scripts/require-tests.sh ./internal/experiments/ $(RACE_TESTS)

# A short bounded pass over every fuzz target, one package:target:time
# entry each: the compiled-vs-precise differential fuzzer (its checked-in
# corpus under internal/cpu/testdata/fuzz seeds it with kernel-shaped
# programs), the assembler parser, the SLO duration and objective-spec
# parsers, the -load spec parser, the page-granular SparseMem paths against
# a byte-wise reference, the differential engine's input-format detection
# and the obs HTTP routes. go test -fuzz takes one target per package run,
# and a target name that matches nothing fails the run.
FUZZ_TARGETS = \
	./internal/cpu/:FuzzExecEquivalence:10s \
	./internal/asm/:FuzzParse:5s \
	./internal/telemetry/slo/:FuzzParseDuration:5s \
	./internal/telemetry/slo/:FuzzParseSpec:5s \
	./internal/experiments/:FuzzParseLoadSpec:5s \
	./internal/memhier/:FuzzSparseMem:5s \
	./internal/telemetry/diff/:FuzzDecode:5s \
	./internal/obs/:FuzzRoutes:5s

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; rest=$${t#*:}; name=$${rest%%:*}; dur=$${rest#*:}; \
		scripts/require-tests.sh $$pkg $$name || exit 1; \
		echo "go test $$pkg -run '^$$' -fuzz '^$$name\$$' -fuzztime $$dur"; \
		go test $$pkg -run '^$$' -fuzz "^$$name\$$" -fuzztime $$dur || exit 1; \
	done

# Run every example end to end. Each checks its own output and exits
# non-zero on a mismatch; customkernel assembles its kernel from text with
# asm.Parse.
examples-smoke:
	@for ex in quickstart customkernel erasurecoding analytics skew; do \
		echo "go run ./examples/$$ex"; go run ./examples/$$ex > /dev/null || exit 1; \
	done

# Run the differential engine against the archived Stat metrics snapshots
# and check the ranked headline, then against fresh Baseline and AssasinSb
# timelines (same headline) and guest profiles (a hot-block table).
diff-smoke:
	scripts/diff-smoke.sh

# Zero-alloc regression gate: the event-queue, crossbar and compiled-core
# loop-driver hot paths must report 0 allocs/op and the firmware
# steady-state guard must pass.
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
	$(MAKE) examples-smoke
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
