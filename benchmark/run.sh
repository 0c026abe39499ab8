#!/usr/bin/env bash
# Builds assasin-perf from the source of the checkout in the current
# directory and runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload stream-offload --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache stay inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build); the traced run's profiles and
# Chrome traces go to .bench_build/traces. The build never touches the
# network: the benchmark module depends only on the simulator module
# beside it.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOPATH=$out/gopath
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/benchmark" build -o "$out/assasin-perf" ./cmd/assasin-perf
exec "$out/assasin-perf" "$@"
