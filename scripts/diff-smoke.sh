#!/usr/bin/env bash
# Smoke-test the differential engine end to end: run assasin-diff on the
# two archived Stat metrics snapshots (Baseline vs AssasinSb) and check the
# headline is the cache/DRAM-wait collapse the stream buffers buy — the
# paper's memory-wall narrative, recovered from files alone. Then run Stat
# on both architectures with -timeline and -kprof-dir, and check that the
# two timelines tell the same story and the two guest profiles give a
# per-block table.
set -euo pipefail
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
go build -o "$dir/assasin-sim" ./cmd/assasin-sim
go build -o "$dir/assasin-diff" ./cmd/assasin-diff

out=$("$dir/assasin-diff" bench/METRICS_stat_baseline.json bench/METRICS_stat_assasinsb.json)
echo "$out" | head -3

echo "$out" | grep -q '^Differential — ' || { echo "diff-smoke: no header"; exit 1; }
echo "$out" | grep -q 'what changed: cache-dram-wait' || {
    echo "diff-smoke: headline is not the cache-dram-wait collapse"
    echo "$out"
    exit 1
}

top=$("$dir/assasin-diff" -json bench/METRICS_stat_baseline.json bench/METRICS_stat_assasinsb.json |
    grep -o '"top_class": *"[^"]*"' | head -1)
echo "$top" | grep -q 'cache-dram-wait' || { echo "diff-smoke: top_class is $top"; exit 1; }

for arch in Baseline AssasinSb; do
    "$dir/assasin-sim" -arch "$arch" -kernel stat -mb 0.25 \
        -timeline "$dir/$arch.timeline.json" -kprof-dir "$dir/$arch.prof" >/dev/null
done

out=$("$dir/assasin-diff" "$dir/Baseline.timeline.json" "$dir/AssasinSb.timeline.json")
echo "$out" | grep -q 'what changed: cache-dram-wait' || {
    echo "diff-smoke: timeline headline is not the cache-dram-wait collapse"
    echo "$out"
    exit 1
}

out=$("$dir/assasin-diff" "$dir/Baseline.prof/profile.json" "$dir/AssasinSb.prof/profile.json")
echo "$out" | grep -q 'guest hot blocks' || {
    echo "diff-smoke: profiles gave no guest hot blocks table"
    echo "$out"
    exit 1
}

echo "diff-smoke: OK"
