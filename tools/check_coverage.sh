#!/usr/bin/env bash
# Coverage ratchet: no library file may gain lines that no root binary
# runs. The roots are the bench_* programs, the examples, rxl_trace and
# bench/e2e's e2e_bench. Tests are not roots, so a line that only tests
# execute counts as never run.
#
# This sees what the symbol gate cannot: inline header code, a branch, a
# mode or an option inside a function the roots do call. Header code that
# no root instantiates emits no coverage record and is not counted.
#
# Method: the tree (tests off) and bench/e2e are built at -O0 with
# --coverage, counters updated atomically so the sharded trial workers
# lose no count. Each root runs once: the 12 table benches at
# RXL_TRIAL_WORKERS=4, the two google-benchmark micro benches at
# --benchmark_min_time=0.001, the 5 examples, rxl_trace's 4 scenarios
# under each of its 5 commands, and e2e_bench --smoke on all 5 workloads,
# plain and with --trace 1. gcov --json-format then folds every object's
# records: a line of include/rxl or src is instrumented when any object
# has a record for it, and never run when no object's count is nonzero.
#
# The gate fails when a file's never-run count rises above its entry in
# tools/coverage_baseline.txt (a file without an entry counts as 0). A
# change that runs more lines, or deletes never-run ones, lowers the
# baseline with --update.
#
# Usage: tools/check_coverage.sh [--update] [build-dir]
#        (default build dir: build-coverage)
set -euo pipefail
export LC_ALL=C

update=0
if [[ ${1:-} == --update ]]; then
  update=1
  shift
fi
root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build-coverage}
baseline=$root/tools/coverage_baseline.txt

flags=(
  -DCMAKE_BUILD_TYPE=Debug
  -DCMAKE_CXX_FLAGS_DEBUG=-O0
  "-DCMAKE_CXX_FLAGS=--coverage -fprofile-update=atomic"
  -DCMAKE_EXE_LINKER_FLAGS=--coverage
)
cmake -S "$root" -B "$build/main" "${flags[@]}" \
  -DRXL_BUILD_TESTS=OFF -DRXL_HEADER_SELFCHECK=OFF > /dev/null
cmake --build "$build/main" --parallel "$(nproc)" > /dev/null
cmake -S "$root/bench/e2e" -B "$build/e2e" "${flags[@]}" > /dev/null
cmake --build "$build/e2e" --parallel "$(nproc)" > /dev/null
# Counters accumulate across runs: start every check from zero.
find "$build" -name '*.gcda' -delete

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# A root's output is dropped; a failing root stops the check with its stderr.
run() {
  "$@" > /dev/null 2> "$tmp/stderr" ||
    { echo "failed: $*" >&2; cat "$tmp/stderr" >&2; return 1; }
}

export RXL_TRIAL_WORKERS=4
mapfile -t benches < <(
  find "$build/main/bench" -maxdepth 1 -type f -executable -name 'bench_*' |
    sort)
for bench in "${benches[@]}"; do
  case $(basename "$bench") in
    bench_codec_micro | bench_sim_micro)
      run "$bench" --benchmark_min_time=0.001 ;;
    *) run "$bench" ;;
  esac
done
mapfile -t examples < <(
  find "$build/main/examples" -maxdepth 1 -type f -executable | sort)
for example in "${examples[@]}"; do run "$example"; done
for scenario in chain incast trunk fault; do
  for command in chrome csv summary timeseries "journey 0 5"; do
    # shellcheck disable=SC2086  # "journey 0 5" is a command and its args
    run "$build/main/tools/rxl_trace/rxl_trace" "$scenario" $command
  done
done
for workload in chain4-clean incast16-greedy incast4-load90 star8-noisy \
  sweep-tiny; do
  for trace in 0 1; do
    run "$build/e2e/e2e_bench" --workload "$workload" --smoke \
      --trace "$trace" --expected "$root/bench/e2e/expected/fingerprints.txt"
  done
done

# One gcov JSON document per object, on stdout.
find "$build" -name '*.gcda' -print0 | sort -z |
  (cd "$tmp" && xargs -0 gcov --json-format --stdout 2> /dev/null) \
    > "$tmp/gcov.json"

python3 - "$root" "$tmp/gcov.json" "$baseline" "$update" <<'PY'
import json
import os
import sys

root, dump, baseline_path, update = sys.argv[1:5]
scopes = (os.path.join(root, "include", "rxl") + os.sep,
          os.path.join(root, "src") + os.sep)
ran = {}  # (file, line) -> executed by some object
decoder = json.JSONDecoder()
text = open(dump).read()
at = 0
while True:
    while at < len(text) and text[at].isspace():
        at += 1
    if at == len(text):
        break
    document, at = decoder.raw_decode(text, at)
    cwd = document.get("current_working_directory", "")
    for record in document["files"]:
        path = os.path.realpath(os.path.join(cwd, record["file"]))
        if not path.startswith(scopes):
            continue
        name = os.path.relpath(path, root)
        for line in record["lines"]:
            key = (name, line["line_number"])
            ran[key] = ran.get(key, False) or line["count"] > 0

never = {}
for (name, _), executed in ran.items():
    never.setdefault(name, 0)
    if not executed:
        never[name] += 1
total_never = sum(never.values())
print(f"coverage: {len(ran)} library lines instrumented, "
      f"{len(ran) - total_never} executed, {total_never} never run by a root")

if update == "1":
    with open(baseline_path, "w") as out:
        out.write("# Library lines no root binary runs, per file: the ceiling\n"
                  "# tools/check_coverage.sh enforces. Regenerate with\n"
                  "# tools/check_coverage.sh --update.\n")
        for name in sorted(never):
            if never[name] > 0:
                out.write(f"{never[name]} {name}\n")
    print(f"coverage: wrote {os.path.relpath(baseline_path, root)}")
    sys.exit(0)

allowed = {}
for raw in open(baseline_path):
    raw = raw.split("#", 1)[0].strip()
    if raw:
        count, name = raw.split(maxsplit=1)
        allowed[name] = int(count)
status = 0
for name in sorted(set(never) | set(allowed)):
    now, ceiling = never.get(name, 0), allowed.get(name, 0)
    if now > ceiling:
        print(f"  {name}: {now} never-run lines, baseline {ceiling}")
        status = 1
    elif now < ceiling:
        print(f"  {name}: {now} never-run lines, below baseline {ceiling} "
              "(lower it with --update)")
sys.exit(status)
PY
