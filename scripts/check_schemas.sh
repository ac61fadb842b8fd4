#!/bin/sh
# Schema-contract gate: generate one artifact per schema-versioned JSON
# document the tools emit, then validate every one of them with clpp-schema
# (a structural required-key check over the declared "clpp.<name>.v1"). A
# producer renaming or dropping a top-level field without bumping its
# version string fails here before any consumer (clpp-slo, clpp-profdiff,
# clpp-insight, dashboards) breaks downstream.
#
#   $ scripts/check_schemas.sh
#   $ BUILD_DIR=build scripts/check_schemas.sh
#
# Covered: clpp.lint.v1, clpp.explain.v1, clpp.serve_loadgen.v1 (quality
# block included), clpp.metrics_stream.v1, clpp.flight.v1, clpp.slo_budget.v1,
# clpp.slo_verdict.v1, clpp.insight_report.v1, clpp.shard_loadgen.v1,
# clpp.shard_stats.v1 (a sharded --listen front end's final stats document,
# cache block included), and clpp.shard_scaling.v1 (a tiny scaling-bench run).
set -e
cd "$(dirname "$0")/.."
START_S=$(date +%s)

BUILD_DIR="${BUILD_DIR:-build-ci-release}"
OUT_DIR="${OUT_DIR:-schema_artifacts}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j \
  --target clpp-schema clpp-lint clpp-serve clpp-slo clpp-insight \
  shard_scaling_bench >/dev/null

BIN="$BUILD_DIR/examples"
mkdir -p "$OUT_DIR"

echo "== generating artifacts =="

# clpp.lint.v1 — lint report over a real kernel (exit 1 = findings, fine).
"$BIN/clpp-lint" --json corpus/realworld/gemm.c \
  > "$OUT_DIR/lint.json" || true

# clpp.explain.v1 — dependence-engine decision provenance for the same file.
"$BIN/clpp-lint" --explain --json corpus/realworld/gemm.c \
  > "$OUT_DIR/explain.json"

# clpp.serve_loadgen.v1 (carries the clpp.insight.v1 quality block) plus a
# clpp.metrics_stream.v1 jsonl streamed while the loadgen runs.
CLPP_OBS=1 CLPP_METRICS_STREAM="$OUT_DIR/metrics_stream.jsonl" \
  CLPP_METRICS_STREAM_MS=50 \
  "$BIN/clpp-serve" --random-model --no-analysis --no-compar \
  --loadgen 32 --concurrency 4 --stats-out "$OUT_DIR/loadgen.json" >/dev/null

# clpp.flight.v1 — the CLI fatal boundary (report_cli_error) dumps the
# flight recorder when a dump path is armed; a usage error is the cheapest
# deterministic fatal.
CLPP_FLIGHT_OUT="$OUT_DIR/flight.json" \
  "$BIN/clpp-insight" --realworld corpus/realworld >/dev/null 2>&1 || true
test -s "$OUT_DIR/flight.json" || {
  echo "check_schemas: fatal path produced no flight dump" >&2; exit 1; }

# clpp.shard_loadgen.v1 — socket loadgen against a small sharded front end;
# the front end's stdout is the bare clpp.shard_stats.v1 stats document it
# prints after draining on SIGTERM. A stale port file from an aborted run
# would point the loadgen at a dead port, so remove it first; the trap keeps
# a `set -e` abort anywhere below from orphaning the front end.
rm -f "$OUT_DIR/shard_port"
"$BIN/clpp-serve" --random-model --no-analysis --no-compar \
  --listen --shards 2 --port-file "$OUT_DIR/shard_port" \
  > "$OUT_DIR/shard_stats.json" &
SHARD_PID=$!
trap 'kill "$SHARD_PID" 2>/dev/null || true' EXIT
i=0
while [ ! -s "$OUT_DIR/shard_port" ]; do
  i=$((i + 1))
  [ "$i" -gt 50 ] && { echo "check_schemas: no shard port" >&2; exit 1; }
  sleep 0.1
done
"$BIN/clpp-serve" --connect "$(cat "$OUT_DIR/shard_port")" \
  --loadgen 16 --concurrency 4 \
  --stats-out "$OUT_DIR/shard_loadgen.json" >/dev/null
kill "$SHARD_PID"
wait "$SHARD_PID" 2>/dev/null || true
trap - EXIT
test -s "$OUT_DIR/shard_stats.json" || {
  echo "check_schemas: listen front end printed no stats document" >&2
  exit 1; }

# clpp.shard_scaling.v1 — a tiny run of the closed-loop scaling bench
# (two points, a handful of requests) exercises the full artifact shape:
# per-point series, the scaling and cache_win summary blocks, and the
# verdict-identity verdict.
"$BUILD_DIR/bench/shard_scaling_bench" \
  --points "1 2" --requests 24 --dup-requests 32 --concurrency 4 \
  --out "$OUT_DIR/shard_scaling.json" >/dev/null

# clpp.slo_verdict.v1 — evaluate the loadgen artifact we just produced.
"$BIN/clpp-slo" --budget slo/budgets.json --quality-warn-only --json \
  --stats "$OUT_DIR/loadgen.json" > "$OUT_DIR/slo_verdict.json" || true

# clpp.insight_report.v1 — offline model-quality report over the kernels.
"$BIN/clpp-insight" --realworld corpus/realworld --random-model --json \
  > "$OUT_DIR/insight_report.json"

echo "== validating =="
"$BIN/clpp-schema" \
  "$OUT_DIR/lint.json" \
  "$OUT_DIR/explain.json" \
  "$OUT_DIR/loadgen.json" \
  "$OUT_DIR/shard_loadgen.json" \
  "$OUT_DIR/shard_stats.json" \
  "$OUT_DIR/shard_scaling.json" \
  "$OUT_DIR/metrics_stream.jsonl" \
  "$OUT_DIR/flight.json" \
  "$OUT_DIR/slo_verdict.json" \
  "$OUT_DIR/insight_report.json" \
  slo/budgets.json

echo "check_schemas: all artifacts conform"
echo "check_schemas: elapsed $(($(date +%s) - START_S))s"
