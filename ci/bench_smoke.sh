#!/bin/sh
# Event-core benchmark smoke run: exercises the simulator's hot path
# (micro_sim event-queue benchmarks) plus a reduced fig09 scalability
# run, and records the headline numbers in BENCH_eventcore.json so
# regressions show up in review diffs.
#
# Run from the repository root: ./ci/bench_smoke.sh
# Output: BENCH_eventcore.json (repo root).
set -eu

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-BENCH_eventcore.json}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j --target micro_sim fig09_scale ctrl_storm

echo "== micro_sim (event-queue benchmarks) =="
MICRO_JSON=$(mktemp)
METRICS_JSON=""
TRACE_JSON=""
trap 'rm -f "$MICRO_JSON" "$METRICS_JSON" "$TRACE_JSON"' EXIT
"$BUILD_DIR/bench/micro_sim" \
    --benchmark_filter='BM_EventQueue|BM_TaskChain' \
    --benchmark_min_time=0.2 \
    --benchmark_format=json >"$MICRO_JSON"
jq -r '.benchmarks[] | "\(.name): \(.real_time | floor) ns"' \
    "$MICRO_JSON"

echo "== fig09_scale (reduced: 4 tiles max) =="
M3V_FIG09_TILES=4 "$BUILD_DIR/bench/fig09_scale"

echo "== fig09_scale scaling: --jobs=1 vs --jobs=4 =="
# Host-side parallel speedup of the cellized sweep. The two runs must
# print byte-identical figures (determinism contract); wall-clock and
# throughput go into BENCH_scale.json. Speedup needs free cores: on a
# single-core runner the jobs=4 numbers simply match jobs=1.
SCALE_OUT="${SCALE_OUT:-BENCH_scale.json}"
PERF1=$(mktemp) PERF4=$(mktemp) OUT1=$(mktemp) OUT4=$(mktemp)
M3V_FIG09_TILES=4 "$BUILD_DIR/bench/fig09_scale" --jobs=1 \
    --perf-out="$PERF1" >"$OUT1"
M3V_FIG09_TILES=4 "$BUILD_DIR/bench/fig09_scale" --jobs=4 \
    --perf-out="$PERF4" >"$OUT4"
cmp "$OUT1" "$OUT4" || {
    echo "FAIL: fig09 output differs between --jobs=1 and --jobs=4" >&2
    exit 1
}
# On a single-hardware-thread runner the jobs=4 run cannot go faster
# than jobs=1; the speedup figure is meaningless noise there, so the
# "speedup" key is emitted only when it is a real measurement — a
# null would read as a broken run in review diffs, and downstream
# smoke checks must skip the comparison instead of comparing to null.
jq -n --slurpfile j1 "$PERF1" --slurpfile j4 "$PERF4" \
    --argjson cpus "$(nproc)" '{
  bench: "fig09_scale (M3V_FIG09_TILES=4)",
  host_cpus: $cpus,
  hw_concurrency: $j1[0].hw_concurrency,
  jobs_config: [$j1[0].jobs, $j4[0].jobs],
  jobs1: $j1[0],
  jobs4: $j4[0],
  speedup_valid: ($j1[0].hw_concurrency > 1)
} + (if $j1[0].hw_concurrency > 1 and $j4[0].wall_ms > 0
     then {speedup: ($j1[0].wall_ms / $j4[0].wall_ms)} else {} end)
' >"$SCALE_OUT"
rm -f "$PERF1" "$PERF4" "$OUT1" "$OUT4"

echo "== fig09_scale mesh fabric sweep (64/256 tiles) =="
# The k-ary mesh sweep: per tile count, the same workload runs at
# jobs=1/2/4 and must produce identical digests (the bench aborts
# otherwise). Wall-clock rows merge into BENCH_scale.json under
# "mesh"; per-row speedup keys appear only on hosts with >= 4
# hardware threads (speedup_valid).
MESH_JSON=$(mktemp)
M3V_FIG09_TILES=256 "$BUILD_DIR/bench/fig09_scale" --mesh-only \
    --scale-out="$MESH_JSON"
jq --slurpfile m "$MESH_JSON" '. + {mesh: $m[0].mesh}' \
    "$SCALE_OUT" >"$SCALE_OUT.tmp" && mv "$SCALE_OUT.tmp" "$SCALE_OUT"
rm -f "$MESH_JSON"

echo "== wrote $SCALE_OUT =="
if [ "$(jq '.speedup_valid' "$SCALE_OUT")" = "false" ]; then
    echo "NOTE: hw_concurrency == 1 -- jobs=1 vs jobs=4 speedup" \
         "comparison skipped (speedup_valid: false)"
fi
jq '{host_cpus, speedup_valid,
     speedup: (.speedup // "skipped"),
     jobs1: .jobs1.wall_ms, jobs4: .jobs4.wall_ms,
     mesh_tiles: [.mesh[].tiles]}' "$SCALE_OUT"

echo "== bench/ctrl_storm (sharded controller, 1/2/4 shards) =="
# The storm binary runs every shard count at --jobs=1/2/4 internally
# and aborts on any digest divergence, so a clean exit IS the
# determinism check. The simulated shards=4/shards=1 capacity ratio
# is deterministic; the speedup_shards* keys are still only emitted
# on hosts with >= 4 hardware threads (same absent-beats-null
# contract as the fig09 mesh rows).
CTRL_OUT="${CTRL_OUT:-BENCH_controller.json}"
"$BUILD_DIR/bench/ctrl_storm" ${CTRL_STORM_OPS:+--ops=$CTRL_STORM_OPS} \
    --storm-out="$CTRL_OUT"
echo "== wrote $CTRL_OUT =="
if [ "$(jq '.speedup_valid' "$CTRL_OUT")" = "false" ]; then
    echo "NOTE: hw_concurrency < 4 -- shards=4 vs shards=1 speedup" \
         "keys omitted (speedup_valid: false)"
fi
jq '{ops, hw_concurrency, speedup_valid,
     speedup_shards4: (.speedup_shards4 // "skipped"),
     syscalls_per_sec: [.shards[].syscalls_per_sec],
     p99_us: [.shards[].p99_us],
     xshard_timeouts: [.shards[].xshard_timeouts]}' "$CTRL_OUT"

echo "== fig06_micro observability smoke =="
cmake --build "$BUILD_DIR" -j --target fig06_micro
METRICS_JSON=$(mktemp)
TRACE_JSON=$(mktemp)
# (both are removed by the EXIT trap)
"$BUILD_DIR/bench/fig06_micro" \
    --metrics-out="$METRICS_JSON" \
    --trace-out="$TRACE_JSON" >/dev/null

# The metrics dump must carry instruments from every major subsystem
# (dtu, vdtu, tilemux, noc, m3x) and plausible values: the remote RPC
# run crosses the NoC, so deliveries and vDTU core requests are
# nonzero, and the M3x reference run context-switches through its
# kernel.
jq -e '
  .m3v_remote["ctrl.dtu.msgs_sent"] != null and
  .m3v_remote["tile0.vdtu.core_reqs"] != null and
  .m3v_remote["tile0.tilemux.switches"] != null and
  .m3v_remote["noc.delivered"] > 0 and
  (.m3v_remote | keys | map(select(startswith("tile0.vdtu"))) | length > 0) and
  .m3v_local["tile0.tilemux.tmcalls"] > 0 and
  .m3x["m3x.kernel.switches"] > 0 and
  .m3x["m3x.kernel.slowpaths"] > 0
' "$METRICS_JSON" >/dev/null || {
    echo "FAIL: metrics JSON is missing expected keys" >&2
    jq 'keys' "$METRICS_JSON" >&2 || cat "$METRICS_JSON" >&2
    exit 1
}

# The trace must be valid Chrome trace-event JSON with balanced
# B/E spans and named tracks.
jq -e '
  (.traceEvents | length) > 0 and
  (([.traceEvents[] | select(.ph == "B")] | length) ==
   ([.traceEvents[] | select(.ph == "E")] | length)) and
  (([.traceEvents[] | select(.ph == "M" and .name == "process_name")]
    | length) > 0)
' "$TRACE_JSON" >/dev/null || {
    echo "FAIL: trace JSON malformed or missing spans/metadata" >&2
    exit 1
}
echo "metrics+trace OK: $(jq '.traceEvents | length' "$TRACE_JSON") trace events"
rm -f "$METRICS_JSON" "$TRACE_JSON"

# Headline metrics: steady-state schedule/fire cost, throughput, and
# the largest standing backlog the mixed-horizon benchmark held.
jq '{
  ns_per_event: (
    [.benchmarks[] | select(.name == "BM_EventQueueScheduleFire")
     | .real_time][0]),
  events_per_sec: (
    [.benchmarks[] | select(.name == "BM_EventQueueScheduleFire")
     | .items_per_second][0]),
  peak_pending: (
    [.benchmarks[] | select(.name | startswith("BM_EventQueueMixedHorizon"))
     | .pending] | max),
  benchmarks: [.benchmarks[] | {
    name, ns_per_op: .real_time,
    items_per_sec: (.items_per_second // null),
    pending: (.pending // null)
  }]
}' "$MICRO_JSON" >"$OUT"

echo "== wrote $OUT =="
jq '{ns_per_event, events_per_sec, peak_pending}' "$OUT"
