#!/usr/bin/env bash
# Smoke-test the live observability server: boot assasin-serve on an
# OS-chosen port, wait for the listen line, probe the health and metrics
# endpoints while the experiments run, and check that a known counter is
# exposed in Prometheus text format. A second pass sustains open-loop load
# with a deliberately tight SLO and asserts /slo + /live serve, the
# fast-burn alert fires, the load drives appear under /runs and in
# /metrics, and SIGTERM drains to a clean exit 0.
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'kill "$pid" 2>/dev/null || true; rm -f "$out" assasin-serve-smoke' EXIT

go build -o assasin-serve-smoke ./cmd/assasin-serve
./assasin-serve-smoke -exp table2 -quick -once -log-level warn >"$out" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 50); do
    addr=$(grep -o 'http://[0-9.:]*' "$out" | head -1 || true)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "serve-smoke: server exited early"; cat "$out"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve-smoke: no listen line"; cat "$out"; exit 1; }
echo "serve-smoke: probing $addr"

# probe PATH PATTERN — poll the endpoint until the response matches,
# retrying while the -once server is still up (run snapshots appear at run
# boundaries, and on a loaded machine the whole quick pass is short).
probe() {
    body=""
    for _ in $(seq 1 100); do
        if body=$(curl -fsS "$addr$1" 2>/dev/null) && echo "$body" | grep -q "$2"; then
            return 0
        fi
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.05
    done
    echo "serve-smoke: $1 never matched $2"
    echo "$body" | head -10
    exit 1
}

probe /healthz '^ok$'
probe /readyz .
# The fed-pages counter appears once the first run's snapshot is published.
probe /metrics '^assasin_fw_pages_fed_total [1-9]'
probe /metrics '^assasin_serve_ready 1$'
# At least one run has completed (its counter is in /metrics), so its
# sampled timeline, request-trace summary, and guest kernel profile must be
# served too.
probe /runs/run-0001/timeline '"times_ps"'
probe /runs/run-0001/requests '"critical_totals_ps"'
probe /runs/run-0001/profile '"kernels"'
# The compare route rebuilds both sides from the stored runs: the phase and
# guest-block sections appear only when it finds both runs' timelines and
# guest profiles.
probe /runs/run-0001/compare/run-0002 '"phases"'
probe /runs/run-0001/compare/run-0002 '"blocks"'

# Negative paths: unknown runs 404, wrong methods 405.
expect_code() {
    code=$(curl -s -o /dev/null -w '%{http_code}' -X "$1" "$addr$2")
    [ "$code" = "$3" ] || { echo "serve-smoke: $1 $2 returned $code, want $3"; exit 1; }
}
expect_code GET /runs/run-9999/profile 404
expect_code GET /runs/run-9999/report 404
expect_code POST /runs/run-0001/profile 405
expect_code POST /runs/run-0001/report 405
# Nothing published the SLO state in a non-load experiment.
expect_code GET /slo 404
expect_code GET /live 404

wait "$pid" || { echo "serve-smoke: server failed"; cat "$out"; exit 1; }

# ---- open-loop load pass: live /slo + /live, firing fast-burn alert, ----
# ---- and graceful SIGTERM drain.                                     ----
# Full benchmark scale (120k requests over two IO tenants plus the batch
# offload tenant) still completes in well under a second of wall time. A
# 1 ns latency objective makes every request bad, so the fast-burn page
# must fire deterministically. Run without -once so the published state
# stays queryable after the run, then drain with SIGTERM and require a
# clean exit 0.
./assasin-serve-smoke -exp load -log-level info \
    -slo 'all:99.9:1ns' >"$out" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 50); do
    addr=$(grep -o 'http://[0-9.:]*' "$out" | head -1 || true)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "serve-smoke: load server exited early"; cat "$out"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve-smoke: no listen line (load pass)"; cat "$out"; exit 1; }
echo "serve-smoke: probing $addr under load"

probe /slo '"objectives"'
probe /slo '"firing": true'
probe /slo '"rule": "fast-burn"'
probe /live '"rates"'
probe /live '"hists"'
probe /metrics '^assasin_slo_bad_total{objective="all-p99.9",tenant=""} [1-9]'
probe /metrics '^assasin_slo_alert_firing{objective="all-p99.9",rule="fast-burn",severity="page"} 1$'
# Each load drive is a run of its own: its request summary is served under
# /runs, and the root sink it was absorbed into feeds /metrics.
probe /runs/run-0001/requests '"critical_totals_ps"'
probe /metrics '^assasin_req_latency_ps_count [1-9]'

kill -TERM "$pid"
if wait "$pid"; then
    echo "serve-smoke: graceful drain exit 0"
else
    echo "serve-smoke: SIGTERM exit was nonzero"; cat "$out"; exit 1
fi
grep -q 'signal received' "$out" || { echo "serve-smoke: no shutdown log line"; cat "$out"; exit 1; }

echo "serve-smoke: OK"
