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
#   - the nine golden figure tests (ctest -L golden),
#   - the protocol and caps fuzzer (824 scenarios),
#   - the controller storm, the 64-tile router-sharded mesh sweep and
#     the fan-in microbench,
#   - m3vbench --small --trace 1 for every perfbench workload.
# Unit tests are deliberately not run: code that only a unit test
# reaches is what this report is meant to find.
#
# The per-translation-unit gcov records (gcov --json-format) are
# merged by file, so a header's lines count once, summed over every
# unit that includes it. The report lists each file under src/ with
# its reached/instrumented line counts and its unreached line ranges,
# and ends with the total for src/.
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
    fig08_udp fig09_scale fig10_cloud fleet voice_assistant ablations \
    table1_area fuzz_driver ctrl_storm fanin
cmake -S perfbench -B "$PERF_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=--coverage >/dev/null
cmake --build "$PERF_DIR" -j "$JOBS" --target m3vbench

# Counters accumulate across runs; start from zero.
find "$COV_DIR" -name '*.gcda' -delete

echo "== goldens =="
(cd "$COV_DIR" && ctest -L golden -j "$JOBS" --output-on-failure)
echo "== fuzz =="
"$COV_DIR/tests/fuzz/fuzz_driver" --seeds=2 --seqs=400 --diff=6 \
    --faults=both --caps=2
echo "== ctrl_storm =="
"$COV_DIR/bench/ctrl_storm" --ops=12000 >/dev/null
echo "== fig09_scale --mesh-only (64 tiles) =="
M3V_FIG09_TILES=64 "$COV_DIR/bench/fig09_scale" --mesh-only >/dev/null
echo "== fanin =="
"$COV_DIR/bench/fanin" --msgs=2000 --out="" >/dev/null
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
    for doc in out.decode().splitlines():
        if not doc.strip():
            continue
        data = json.loads(doc)
        for f in data["files"]:
            path = os.path.normpath(os.path.join(
                data["current_working_directory"], f["file"]))
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
rows = []
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
