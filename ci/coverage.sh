#!/bin/sh
# Line-coverage report: which lines of src/ do the figures, the
# fuzzer and the benchmark reach?
#
# Builds the tree with --coverage in build-cov/ (unoptimised, so every
# source line keeps its own counter, and with every inline function
# emitted, so a header function nothing calls still shows up as
# unreached instead of not at all) and a standalone coverage build
# of perfbench/ in build-cov/perfbench (RelWithDebInfo, the only build
# type its driver runs), then runs
#   - the ten golden figure tests (ctest -L golden),
#   - the protocol and caps fuzzer (824 scenarios),
#   - the controller storm and the 64-tile router-sharded mesh sweep,
#   - m3vbench --small --trace 1 for every perfbench workload.
# Unit tests are deliberately not run: code that only a unit test
# reaches is what this report is meant to find.
#
# The per-translation-unit gcov records (gcov --json-format) are
# merged by file, so a header's lines count once, summed over every
# unit that includes it. The records of a unit whose own source file
# is gone are skipped, so a reused build-cov/ reports what a fresh
# one does. The report lists each file under src/ with
# its reached/instrumented line counts and its unreached line ranges,
# and ends with the total for src/.
#
# Blind spot: gcov gives the body of a C++20 coroutine no line
# counters, so the lines of every sim::Task function (Env, the TileMux
# TMCalls, the controller's syscall and cross-shard paths, the service
# loops) are neither reached nor unreached in the report, and the
# src/ total leaves them out. The report's first line says so.
#
# A second section sees coroutine bodies at function granularity.
# It builds the product binaries (the nine bench/ binaries, the three
# examples and m3vbench) in build-reach/ at -O0 with one section per
# function and links them with --gc-sections, so a binary keeps only
# the functions something in it can call. It then appends every
# external m3v:: function that the src/ libraries define and no
# product binary keeps, with their count.
#
# It is a report, not a gate: it exits 0 whatever the coverage is,
# and non-zero only when a build or run step fails.
#
# Run from the repository root: ./ci/coverage.sh
# Output: $COVERAGE_REPORT (default build-cov/coverage.txt).
# JOBS (default: nproc) bounds the build and the figure runs.
set -eu

JOBS="${JOBS:-$(nproc)}"
COV_DIR=build-cov
PERF_DIR="$COV_DIR/perfbench"
REPORT="${COVERAGE_REPORT:-$COV_DIR/coverage.txt}"

echo "== build (--coverage) =="
cmake -B "$COV_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -fkeep-inline-functions" >/dev/null
cmake --build "$COV_DIR" -j "$JOBS" --target fig06_micro fig07_fs \
    fig08_udp fig09_scale fig10_cloud voice_assistant ablations \
    table1_area fuzz_driver ctrl_storm
cmake -S perfbench -B "$PERF_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=--coverage >/dev/null
cmake --build "$PERF_DIR" -j "$JOBS" --target m3vbench

# Counters accumulate across runs; start from zero.
find "$COV_DIR" -name '*.gcda' -delete

echo "== goldens =="
(cd "$COV_DIR" && ctest -L golden -j "$JOBS" --output-on-failure)
echo "== fuzz =="
"$COV_DIR/tests/fuzz/fuzz_driver" --seeds=2 --seqs=400 --diff=6 \
    --caps=2
echo "== ctrl_storm =="
"$COV_DIR/bench/ctrl_storm" --ops=12000 >/dev/null
echo "== fig09_scale --mesh-only (64 tiles) =="
M3V_FIG09_TILES=64 "$COV_DIR/bench/fig09_scale" --mesh-only >/dev/null
for w in switch_replay ctrl_storm mesh_lanes; do
    echo "== m3vbench $w --small =="
    "$PERF_DIR/m3vbench" --workload "$w" --small --seconds 0 \
        --trace 1 >"$PERF_DIR/$w.out"
    cut -c 1-100 "$PERF_DIR/$w.out"
done

echo "== report =="
# Every compiled unit has a .gcno; one that no run linked in has no
# .gcda, and gcov then reports all its lines as unreached.
python3 - "$COV_DIR" "$(pwd)/src" "$REPORT" <<'EOF'
import json, os, subprocess, sys
from collections import defaultdict
from itertools import groupby

build, src, report = sys.argv[1:]
gcnos = [os.path.join(d, f) for d, _, fs in os.walk(build)
         for f in fs if f.endswith(".gcno")]
counts = defaultdict(dict)  # file -> line -> summed count
for gcno in sorted(gcnos):
    out = subprocess.run(["gcov", "--json-format", "--stdout", gcno],
                         check=True, capture_output=True).stdout
    # A unit's notes are named after its own source (foo.cc.gcno).
    unit = os.path.basename(gcno)[:-len(".gcno")]
    for doc in out.decode().splitlines():
        if not doc.strip():
            continue
        data = json.loads(doc)
        paths = [os.path.normpath(os.path.join(
            data["current_working_directory"], f["file"]))
            for f in data["files"]]
        # A reused build tree keeps the notes of deleted sources:
        # skip every record of a unit whose own source is gone.
        if any(os.path.basename(p) == unit and not os.path.exists(p)
               for p in paths):
            continue
        for path, f in zip(paths, data["files"]):
            if not path.startswith(src + os.sep) or not f["lines"]:
                continue
            lines = counts[os.path.relpath(path, os.path.dirname(src))]
            for ln in f["lines"]:
                n = ln["line_number"]
                lines[n] = lines.get(n, 0) + ln["count"]

def ranges(nums):
    """Sorted line numbers as "3-7, 12" runs."""
    runs = []
    for _, run in groupby(enumerate(nums), lambda p: p[1] - p[0]):
        run = [n for _, n in run]
        runs.append(str(run[0]) if len(run) == 1
                    else f"{run[0]}-{run[-1]}")
    return ", ".join(runs)

total = reached = 0
rows = ["note: C++20 coroutine bodies (sim::Task functions) get no "
        "line counters; their lines are neither reached nor "
        "unreached below"]
for path in sorted(counts):
    lines = counts[path]
    hit = sum(1 for c in lines.values() if c > 0)
    total += len(lines)
    reached += hit
    miss = sorted(n for n, c in lines.items() if c == 0)
    rows.append(f"{path}: {hit}/{len(lines)} lines"
                f" ({100.0 * hit / len(lines):.1f} %)")
    if miss:
        rows.append(f"  unreached: {ranges(miss)}")
rows.append(f"TOTAL src/: {reached}/{total} lines"
            f" ({100.0 * reached / max(total, 1):.1f} %)")
os.makedirs(os.path.dirname(os.path.abspath(report)), exist_ok=True)
with open(report, "w") as fh:
    fh.write("\n".join(rows) + "\n")
print(rows[-1])
print(f"report written to {report}")
EOF

echo "== link-level reachability (-O0, --gc-sections) =="
REACH_DIR=build-reach
REACH_FLAGS="-O0 -ffunction-sections -fdata-sections"
BENCHES="fig06_micro fig07_fs fig08_udp fig09_scale fig10_cloud \
voice_assistant ablations table1_area ctrl_storm"
EXAMPLES="quickstart cloud_service find_trace"
cmake -B "$REACH_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$REACH_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
cmake --build "$REACH_DIR" -j "$JOBS" --target $BENCHES $EXAMPLES
cmake -S perfbench -B "$REACH_DIR/perfbench" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$REACH_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
cmake --build "$REACH_DIR/perfbench" -j "$JOBS" --target m3vbench
PRODUCTS="$REACH_DIR/perfbench/m3vbench"
for b in $BENCHES; do PRODUCTS="$PRODUCTS $REACH_DIR/bench/$b"; done
for e in $EXAMPLES; do PRODUCTS="$PRODUCTS $REACH_DIR/examples/$e"; done
python3 - "$REPORT" "$REACH_DIR"/src/*/libm3v_*.a -- $PRODUCTS <<'EOF'
import re, subprocess, sys

report = sys.argv[1]
split = sys.argv.index("--")
libs, products = sys.argv[2:split], sys.argv[split + 1:]

def functions(path, external):
    """Mangled names of the function symbols path defines."""
    args = ["nm", "--defined-only"] + (["-g"] if external else [])
    out = subprocess.run(args + [path], check=True,
                         capture_output=True, text=True).stdout
    return {f[2] for f in (ln.split() for ln in out.splitlines())
            if len(f) == 3 and f[1] in "TtWw"}

# Members of namespace m3v and the lambdas inside them; a std::
# template instantiated on an m3v type is not one.
defined = sorted(m for p in libs for m in functions(p, True)
                 if re.match(r"_ZZ?N[KVRO]*3m3v", m))
kept = set().union(*(functions(p, False) for p in products))
names = subprocess.run(["c++filt"], input="\n".join(defined),
                       check=True, capture_output=True,
                       text=True).stdout.splitlines()
# Constructor and destructor variants share one name: count it once.
m3v = set(names)
unkept = sorted(m3v - {n for m, n in zip(defined, names)
                        if m in kept})
rows = ["", "link-level reachability: external m3v:: functions the "
        "src/ libraries define that no product binary keeps (-O0, "
        "--gc-sections; coroutine bodies included)"]
rows += [f"  {n}" for n in unkept]
rows.append(f"TOTAL unkept: {len(unkept)} of {len(m3v)} external "
            f"m3v:: functions")
with open(report, "a") as fh:
    fh.write("\n".join(rows) + "\n")
print(rows[-1])
EOF
