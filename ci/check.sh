#!/bin/sh
# Tier-1 verification: check that every header compiles on its own,
# then build and run the full test suite twice —
# once plain (the configuration the benchmarks use) and once under
# ASan + UBSan (M3VSIM_SANITIZE=ON), crash/robustness tests included —
# then run the parallel-execution tests under TSan
# (M3VSIM_SANITIZE=thread).
#
# Every stage runs, even after an earlier one failed, and ends as
# PASS, FAIL or SKIP (a stage gated on the host's hardware threads).
# The table is printed at the end and written as JSON to
# $CHECK_SUMMARY (default build/check-summary.json). The script
# exits non-zero if any stage failed.
# Run from the repository root: ./ci/check.sh
set -u

CHECK_SUMMARY="${CHECK_SUMMARY:-build/check-summary.json}"
RESULTS=$(mktemp)
trap 'rm -f "$RESULTS"' EXIT

# stage NAME FUNCTION: run FUNCTION in a subshell that stops at its
# first failing command, and record the outcome.
stage() {
    echo "== $1 =="
    (set -e; "$2")
    if [ $? -eq 0 ]; then
        echo "$1|PASS" >>"$RESULTS"
    else
        echo "FAIL: stage '$1'" >&2
        echo "$1|FAIL" >>"$RESULTS"
    fi
}

# skip NAME REASON: record a stage this host cannot run.
skip() {
    echo "== $1 =="
    echo "NOTE: $2 -- stage skipped"
    echo "$1|SKIP" >>"$RESULTS"
}

# check_filter DIR PATTERN: fail unless every |-alternative of the
# ctest regex PATTERN matches at least one test registered in DIR, so
# a deleted or renamed test cannot silently empty an explicit re-run.
check_filter() {
    printf '%s\n' "$2" | tr '|' '\n' | while read -r alt; do
        n=$(cd "$1" && ctest -N -R "$alt" | sed -n 's/^Total Tests: //p')
        if [ "${n:-0}" -eq 0 ]; then
            echo "FAIL: ctest -R '$alt' matches no test in $1" >&2
            exit 1
        fi
    done
}

headers_standalone() {
    # Every header under src/ compiles on its own, so none relies on
    # what an includer happened to include before it.
    bad=0
    for h in $(find src -name '*.h' | sort); do
        if ! g++ -std=c++20 -fsyntax-only -Isrc "$h"; then
            echo "FAIL: $h does not compile on its own" >&2
            bad=1
        fi
    done
    [ "$bad" -eq 0 ]
}

plain_build() {
    # Warnings (-Wall -Wextra) are errors here, on incremental builds
    # too.
    cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
    cmake --build build -j
    (cd build && ctest --output-on-failure -j "$(nproc)")
}

fuzz_smoke() {
    # >=10k generated scenarios (5 seed streams) through the
    # single-queue rig with every invariant attached at stride 1, plus
    # differential runs (laned jobs=1 vs jobs=4 must produce identical
    # digests). Any invariant trip, reference-model mismatch, or
    # divergence fails.
    build/tests/fuzz/fuzz_driver --seeds=5 --seqs=2100 --diff=25 \
        --caps=10
}

fig09_jobs() {
    # The cellized Figure 9 sweep (4 tiles) must print byte-identical
    # figures on --jobs=1 and --jobs=4.
    OUT1=$(mktemp) OUT4=$(mktemp)
    M3V_FIG09_TILES=4 build/bench/fig09_scale --jobs=1 >"$OUT1"
    M3V_FIG09_TILES=4 build/bench/fig09_scale --jobs=4 >"$OUT4"
    cmp "$OUT1" "$OUT4" || {
        echo "FAIL: fig09 output differs between --jobs=1 and" \
             "--jobs=4" >&2
        exit 1
    }
    rm -f "$OUT1" "$OUT4"
}

mesh_speedup() {
    # Measured parallel speedup of the router-sharded 64-tile mesh on
    # the plain build.
    MESH_PERF=$(mktemp)
    M3V_FIG09_TILES=64 build/bench/fig09_scale --mesh-only \
        --scale-out="$MESH_PERF"
    jq -e '.mesh[0].jobs1_wall_ms / .mesh[0].jobs4_wall_ms > 1.15' \
        "$MESH_PERF" >/dev/null || {
        echo "FAIL: 64-tile mesh jobs=4 speedup <= 1.15" >&2
        jq '.mesh[0]' "$MESH_PERF" >&2
        exit 1
    }
    echo "mesh jobs=4 speedup: $(jq '.mesh[0].speedup4' "$MESH_PERF")"
    rm -f "$MESH_PERF"
}

asan_build() {
    cmake -B build-asan -S . -DM3VSIM_SANITIZE=ON >/dev/null
    cmake --build build-asan -j
    (cd build-asan && ctest --output-on-failure -j "$(nproc)")
}

asan_fuzz() {
    # Smaller corpus (sanitizer overhead), same fixed seeds: memory
    # bugs in the protocol engines surface here before they corrupt
    # state.
    build-asan/tests/fuzz/fuzz_driver --seeds=5 --seqs=300 --diff=10 \
        --caps=3
}

asan_shards() {
    # Two-phase revocation frees capability subtrees across shards
    # while peers still hold RemoteRefs into them, and crash reaping
    # tears down tables with in-flight protocol state — the
    # dangling-pointer surface ASan exists for. (The full build-asan
    # ctest above already ran these; the explicit re-run keeps a
    # filter typo from silently skipping the newest protocol tests.)
    # The caps campaign runs every seed at shards=1 too: the single
    # controller is the same code with no peers, and its revoke/reap
    # path gets the same fuzzing. The nested-reply stash is reached
    # only by NestedCallStashesOuterReply, named on its own so that a
    # rename fails the filter check instead of dropping the path.
    SHARDS='Shard|CapsFuzz|NestedCallStashesOuterReply'
    check_filter build-asan "$SHARDS"
    (cd build-asan && ctest --output-on-failure -R "$SHARDS")
    build-asan/tests/fuzz/fuzz_driver --seeds=0 --caps=3
}

asan_rerun() {
    # The metrics/trace layer, the activity-teardown paths (a crash
    # reap with an RPC in flight: CrashReapTest), the sparse DRAM
    # store's chunk-boundary arithmetic, the wrap-safe memory-gate
    # bounds checks, the event core's 4-ary heap index arithmetic and
    # inline closures, the DTU command pipeline's slot and offset
    # arithmetic (DtuTest, VDtu), the coroutine frame lifetimes of
    # top-level tasks destroyed finished or not (Task.), and the
    # payload moves of the message path with its inline notification
    # (MsgPath) are the most UB-prone (handle lifetimes and offset
    # arithmetic); run them again explicitly so a filter typo above
    # cannot silently skip them.
    RERUN='MetricsRegistry|Tracer\.|JsonEscape|Sampler\.|'\
'ResetAct|Restart|CrashReapTest|DramTest|Wrapped|'\
'EventCore|UniqueFunctionSbo|DtuTest|VDtu|Task\.|MsgPath'
    check_filter build-asan "$RERUN"
    (cd build-asan && ctest --output-on-failure -R "$RERUN")
}

tsan_lanes() {
    # Everything that runs worker threads: the lane scheduler's
    # barrier rounds and the per-lane outboxes they hand over, the
    # sharded NoC, and the --jobs cell runner. Death tests are excluded (fork under TSan is
    # unreliable); the plain and ASan passes above cover them.
    cmake -B build-tsan -S . -DM3VSIM_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j --target sim_lane_test noc_lane_test \
        fuzz_driver
    build-tsan/tests/sim/sim_lane_test --gtest_filter='-*Panic*'
    build-tsan/tests/noc/noc_lane_test
}

tsan_mesh() {
    # The 64-tile k-ary mesh runs one lane per router on fixed lane
    # blocks: 16 lanes exchanging packets and credit returns through
    # LaneLinks while per-pair windows advance — the densest threaded
    # path in the tree. Death tests excluded as above.
    cmake --build build-tsan -j --target noc_mesh_test fig09_scale
    build-tsan/tests/noc/noc_mesh_test --gtest_filter='-*Panic*'
    MESH_TSAN=$(mktemp)
    M3V_FIG09_TILES=64 build-tsan/bench/fig09_scale --mesh-only \
        --scale-out="$MESH_TSAN" >/dev/null
    rm -f "$MESH_TSAN"
}

tsan_shards() {
    # The caps-fuzz differential runs four sharded-controller cells on
    # jobs=4 worker threads through runCells — per-cell Systems must
    # stay thread-local and the merged digests identical with the race
    # detector watching.
    cmake --build build-tsan -j --target os_shard_test caps_fuzz_test
    build-tsan/tests/os/os_shard_test
    build-tsan/tests/fuzz/caps_fuzz_test
}

tsan_fuzz() {
    # Laned differential runs are the threaded path: per-lane
    # invariant registries must stay lane-local, and jobs=1 vs jobs=4
    # digests must match with the race detector watching.
    build-tsan/tests/fuzz/fuzz_driver --seeds=2 --seqs=0 --diff=15
}

stage "headers compile standalone" headers_standalone
stage "plain build + ctest" plain_build
stage "fuzz smoke: protocol fuzzer, fixed seeds" fuzz_smoke
stage "fig09 smoke: 4 tiles, jobs=1 vs jobs=4" fig09_jobs
# Below four hardware threads a jobs=4 run cannot express real
# parallelism, so the speedup assertion is skipped.
if [ "$(nproc)" -ge 4 ]; then
    stage "mesh: 64-tile jobs=4 speedup" mesh_speedup
else
    skip "mesh: 64-tile jobs=4 speedup" "fewer than 4 hardware threads"
fi
stage "sanitized build (ASan + UBSan) + ctest" asan_build
stage "fuzz smoke under ASan (bounded)" asan_fuzz
stage "sharded controller under ASan (cross-shard revoke paths)" \
    asan_shards
stage "sanitized re-run: observability + lifecycle regressions" \
    asan_rerun
stage "TSan build: parallel event execution" tsan_lanes
# The next two need a second hardware thread for real concurrency
# under TSan.
if [ "$(nproc)" -ge 2 ]; then
    stage "mesh sweep under TSan (64 tiles, router-sharded)" tsan_mesh
    stage "sharded controller under TSan (caps differential)" \
        tsan_shards
else
    skip "mesh sweep under TSan (64 tiles, router-sharded)" \
        "single hardware thread"
    skip "sharded controller under TSan (caps differential)" \
        "single hardware thread"
fi
stage "fuzz smoke under TSan (differential only, bounded)" tsan_fuzz

echo "== summary =="
FAILED=0
mkdir -p "$(dirname "$CHECK_SUMMARY")"
{
    printf '{\n  "nproc": %s,\n  "stages": [' "$(nproc)"
    SEP=""
    while IFS='|' read -r name status; do
        printf '%s\n    {"name": "%s", "status": "%s"}' \
            "$SEP" "$name" "$status"
        SEP=","
    done <"$RESULTS"
    printf '\n  ]\n}\n'
} >"$CHECK_SUMMARY"
while IFS='|' read -r name status; do
    printf '%-4s  %s\n' "$status" "$name"
    [ "$status" = FAIL ] && FAILED=$((FAILED + 1))
done <"$RESULTS"
echo "(table written to $CHECK_SUMMARY)"
if [ "$FAILED" -ne 0 ]; then
    echo "$FAILED stage(s) failed" >&2
    exit 1
fi
echo "== all checks passed =="
